package main

import (
	"runtime"
	"testing"

	"onlinetuner/internal/engine"
	"onlinetuner/internal/tpch"
)

// TestHotPathSeekAllocBytes guards the cached point lookup's memory:
// the statement BenchmarkHotPathSeekCached times, run through the exact
// plan cache, must allocate at most maxBytes and maxAllocs per
// statement. It counts bytes and allocations, not time, so the bounds
// hold on any machine. A projection arena sized to a fixed 4,096-datum
// slab instead of the one result row measured ~190 KB per statement on
// this data, failing the byte bound by 45x. maxAllocs sits one above
// the 39 allocations measured on this data, where the 60-row lineitem
// is read by a SeqScan (scale 0.2's IndexSeek makes 25).
func TestHotPathSeekAllocBytes(t *testing.T) {
	const (
		maxBytes  = 4096
		maxAllocs = 40
		stmts     = 2000
	)
	db := engine.Open()
	if err := tpch.NewGenerator(0.01, 7).Load(db); err != nil {
		t.Fatal(err)
	}
	db.SetPlanCacheMode(engine.CacheExact)
	q := seekStmts(1)[0]
	rs, _, err := db.Exec(q) // warm the statement and plan caches
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 {
		t.Fatalf("seek returned %d rows, want 1", len(rs.Rows))
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < stmts; i++ {
		if _, _, err := db.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / stmts; per > maxBytes {
		t.Fatalf("cached seek allocates %d B per statement, want <= %d", per, maxBytes)
	}
	if per := (after.Mallocs - before.Mallocs) / stmts; per > maxAllocs {
		t.Fatalf("cached seek makes %d allocations per statement, want <= %d", per, maxAllocs)
	}
	if s := db.PlanCacheStats(); s.Hits < stmts {
		t.Fatalf("plan cache hits = %d, want >= %d (the guard must measure the cached path)", s.Hits, stmts)
	}
}
