package datum

import (
	"runtime"
	"testing"
	"unsafe"
)

func TestBatchAllocCarvesValidRows(t *testing.T) {
	// Unhinted, under-hinted and exactly-hinted batches all cross
	// several slab boundaries, proving old rows survive new slabs.
	const n = 3 * slabDatums
	for _, hint := range []int{0, 1, 100, n} {
		b := NewBatch(hint)
		var rows []Row
		for i := 0; i < n; i++ {
			r := b.Alloc(3)
			r[0] = NewInt(int64(i))
			r[1] = NewString("x")
			r[2] = NewFloat(float64(i) / 2)
			rows = append(rows, r)
		}
		if b.Len() != n {
			t.Fatalf("hint %d: Len = %d, want %d", hint, b.Len(), n)
		}
		for i, r := range rows {
			if r[0].Int() != int64(i) || r[2].Float() != float64(i)/2 {
				t.Fatalf("hint %d: row %d corrupted after slab growth: got %v", hint, i, r)
			}
			if got := b.Row(i); &got[0] != &r[0] {
				t.Fatalf("hint %d: Row(%d) does not alias the allocated row", hint, i)
			}
		}
	}
}

// TestBatchAllocAmortizesSlab pins the arena property: consecutive small
// Allocs carve from one shared slab (len grows, cap stays) instead of
// allocating a fresh slab per row, so Alloc costs ~0 allocations per
// row over thousands of rows, and the capped row boundary keeps an
// append to one row from clobbering its neighbor.
func TestBatchAllocAmortizesSlab(t *testing.T) {
	b := NewBatch(0)
	r1 := b.Alloc(3)
	r2 := b.Alloc(3)
	if len(b.slab) != 6 || cap(b.slab) < 6 {
		t.Fatalf("slab len/cap = %d/%d after two Allocs, want 6/>=6", len(b.slab), cap(b.slab))
	}
	if &r2[0] != &b.slab[3] {
		t.Fatal("second Alloc did not carve from the same slab")
	}
	r2[0] = NewInt(42)
	_ = append(r1, NewInt(99))
	if r2[0].Int() != 42 {
		t.Fatal("append to a carved row clobbered the next row")
	}
	const rows = 4 * slabDatums
	for _, hint := range []int{0, rows} {
		allocs := testing.AllocsPerRun(10, func() {
			b := NewBatch(hint)
			for i := 0; i < rows; i++ {
				b.Alloc(3)
			}
		})
		if perRow := allocs / rows; perRow > 0.01 {
			t.Fatalf("hint %d: Alloc averages %.3f allocations per row, want ~0 (arena not amortizing)", hint, perRow)
		}
	}
}

var batchSink *Batch

// TestBatchAllocDemandSized pins that a batch allocates in proportion to
// what it carves: a 1-row Alloc on a fresh batch hinted for one row
// takes a slab of exactly one row's datums, not a full slabDatums slab,
// and the whole statement-sized batch stays within its datums plus the
// row header and the Batch itself.
func TestBatchAllocDemandSized(t *testing.T) {
	const width = 5
	b := NewBatch(1)
	b.Alloc(width)
	if cap(b.slab) != width || cap(b.rows) != 1 {
		t.Fatalf("1-row batch: slab cap %d, row cap %d; want %d and 1", cap(b.slab), cap(b.rows), width)
	}
	const iters = 1000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < iters; i++ {
		batchSink = NewBatch(1)
		batchSink.Alloc(width)
	}
	runtime.ReadMemStats(&after)
	exact := width*unsafe.Sizeof(Datum{}) + unsafe.Sizeof(Row(nil)) + unsafe.Sizeof(Batch{})
	// Allow for size-class rounding, nothing more: a slabDatums slab is
	// ~500x this bound.
	if per := (after.TotalAlloc - before.TotalAlloc) / iters; per > uint64(2*exact) {
		t.Fatalf("1-row batch allocates %d B, want <= %d B (rows x width datums + row header + Batch, x2 for size classes)", per, 2*exact)
	}
	// Without a hint the first slab is a few rows, not slabDatums.
	u := NewBatch(0)
	u.Alloc(width)
	if cap(u.slab) > 4*width || cap(u.rows) > 1 {
		t.Fatalf("unhinted 1-row batch: slab cap %d, row cap %d; want <= %d and 1", cap(u.slab), cap(u.rows), 4*width)
	}
}

func TestBatchAllocWiderThanSlab(t *testing.T) {
	b := NewBatch(1)
	r := b.Alloc(slabDatums + 10)
	if len(r) != slabDatums+10 {
		t.Fatalf("wide Alloc len = %d", len(r))
	}
	r2 := b.Alloc(2)
	r2[0] = NewInt(7)
	if r2[0].Int() != 7 || len(b.Rows()) != 2 {
		t.Fatal("alloc after oversized row broken")
	}
}

func TestBatchAppendAndReset(t *testing.T) {
	b := NewBatch(4)
	ext := Row{NewInt(1)}
	b.Append(ext)
	if b.Len() != 1 || &b.Row(0)[0] != &ext[0] {
		t.Fatal("Append must not copy the row")
	}
	b.Reset()
	if b.Len() != 0 {
		t.Fatal("Reset should empty the batch")
	}
	r := b.Alloc(1)
	r[0] = NewInt(9)
	if b.Len() != 1 || b.Row(0)[0].Int() != 9 {
		t.Fatal("batch unusable after Reset")
	}
}
