// Package repro's top-level benchmarks regenerate each of the paper's
// evaluation artifacts (Table 1, Figures 7(a)–(d), Figure 8, Figure 9)
// as testing.B benchmarks, plus micro-benchmarks for the tuner's
// per-query bookkeeping (the paper's "critical section", lines 1–8 of
// Figure 6) and the what-if primitives. They are also the one harness
// for the engine's micro-level costs: the plan-cache hot path, tracing
// and fault-layer overhead, morsel workers, row vs vector execution,
// and WAL commit, replay and checkpoint.
//
// Run everything:
//
//	go test -run '^$' -bench . -benchmem
//
// The figure benchmarks run at reduced scale so a full sweep stays in
// CPU-minutes; cmd/experiments regenerates the full-scale artifacts.
package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"onlinetuner/internal/bench"
	"onlinetuner/internal/catalog"
	"onlinetuner/internal/core"
	"onlinetuner/internal/core/singleindex"
	"onlinetuner/internal/engine"
	"onlinetuner/internal/fault"
	"onlinetuner/internal/tpch"
	"onlinetuner/internal/wal"
	"onlinetuner/internal/whatif"
	"onlinetuner/internal/workload"
)

// benchTPCH is the reduced-scale workload configuration used by the
// figure benchmarks.
func benchTPCH() workload.TPCHOptions {
	o := workload.DefaultTPCH()
	o.Scale = 0.2
	o.NumBatches = 6
	o.DisruptCount = 16
	return o
}

// BenchmarkTable1 regenerates Table 1: the five simple-workload
// schedules with online and sequence-optimal costs.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table1(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure7a regenerates Figure 7(a): OnlinePT per-batch cost on
// the TPC-H batch workload.
func BenchmarkFigure7a(b *testing.B) {
	o := benchTPCH()
	for i := 0; i < b.N; i++ {
		_, series, _, err := bench.Figure7a(o)
		if err != nil {
			b.Fatal(err)
		}
		reportSeries(b, series)
	}
}

// BenchmarkFigure7b regenerates Figure 7(b): the three techniques on the
// same workload.
func BenchmarkFigure7b(b *testing.B) {
	o := benchTPCH()
	for i := 0; i < b.N; i++ {
		_, series, err := bench.Figure7b(o)
		if err != nil {
			b.Fatal(err)
		}
		reportSeries(b, series)
	}
}

// BenchmarkFigure7c regenerates Figure 7(c): OnlinePT with the
// disruptive update batch.
func BenchmarkFigure7c(b *testing.B) {
	o := benchTPCH()
	for i := 0; i < b.N; i++ {
		_, series, _, err := bench.Figure7c(o)
		if err != nil {
			b.Fatal(err)
		}
		reportSeries(b, series)
	}
}

// BenchmarkFigure7d regenerates Figure 7(d): all techniques under the
// disruptive updates.
func BenchmarkFigure7d(b *testing.B) {
	o := benchTPCH()
	for i := 0; i < b.N; i++ {
		_, series, err := bench.Figure7d(o)
		if err != nil {
			b.Fatal(err)
		}
		reportSeries(b, series)
	}
}

// BenchmarkFigure8 regenerates Figure 8: overall costs across workloads
// and techniques.
func BenchmarkFigure8(b *testing.B) {
	o := benchTPCH()
	o.NumBatches = 3
	for i := 0; i < b.N; i++ {
		rows, err := bench.Figure8(o)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(r.Totals["OnlinePT"], shorten(r.Workload)+"_online")
			}
		}
	}
}

// BenchmarkFigure9 regenerates Figure 9: OnlinePT per-module overhead.
func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		data, err := bench.Figure9()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for name, rows := range data {
				for _, r := range rows {
					if r.Module == "Total" {
						b.ReportMetric(float64(r.Duration.Microseconds()), shorten(name)+"_us_per_query")
					}
				}
			}
		}
	}
}

func reportSeries(b *testing.B, series []bench.Series) {
	b.Helper()
	for _, s := range series {
		b.ReportMetric(s.Total(), shorten(s.Name)+"_cost")
	}
}

func shorten(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		}
		if len(out) >= 12 {
			break
		}
	}
	return string(out)
}

// --- micro-benchmarks -----------------------------------------------

// tunedDB builds a loaded database with an attached tuner and a warm
// request stream.
func tunedDB(b *testing.B) (*engine.DB, *core.Tuner) {
	b.Helper()
	db := engine.Open()
	db.MustExec("CREATE TABLE R (id INT, a INT, b INT, c INT, d INT, e INT, PRIMARY KEY (id))")
	for i := 0; i < 3000; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO R VALUES (%d, %d, %d, %d, %d, %d)", i, i%1000, i, i, i, i))
	}
	if err := db.Analyze("R"); err != nil {
		b.Fatal(err)
	}
	return db, core.Attach(db, core.DefaultOptions())
}

// BenchmarkTunerPerQuery measures the tuner's whole per-query path
// (lines 1–21) including query processing.
func BenchmarkTunerPerQuery(b *testing.B) {
	db, _ := tunedDB(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := db.Exec("SELECT a, b, c, id FROM R WHERE a < 100"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryNoTuner is the same query without the tuner, isolating
// the overhead.
func BenchmarkQueryNoTuner(b *testing.B) {
	db, _ := tunedDB(b)
	db.SetObserver(nil)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := db.Exec("SELECT a, b, c, id FROM R WHERE a < 100"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGetCost measures the what-if primitive at the heart of the Δ
// bookkeeping.
func BenchmarkGetCost(b *testing.B) {
	db, _ := tunedDB(b)
	env := db.WhatIfEnv()
	req := &whatif.Request{
		Table: "R", Kind: whatif.KindSeek,
		RangeCol: "a", RangeSel: 0.1,
		Required: []string{"a", "b", "c", "id"},
		Bindings: 1, RowsPerBinding: 300,
		TableRows: 3000, TablePages: env.TablePages("R"),
	}
	config := []*catalog.Index{
		{Name: "i1", Table: "R", Columns: []string{"id", "a", "b", "c"}},
		{Name: "i2", Table: "R", Columns: []string{"a", "b", "c", "id"}},
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = whatif.GetCost(env, req, config)
	}
}

// --- plan-cache hot-path benchmarks ---------------------------------

// hotPathDB loads the TPC-H database the BenchmarkHotPath* family runs
// on, with the plan cache in the requested mode and no tuner attached
// (the cache's effect is isolated from index builds).
func hotPathDB(b *testing.B, mode engine.CacheMode) (*engine.DB, *tpch.Generator) {
	b.Helper()
	db := engine.Open()
	gen := tpch.NewGenerator(0.2, 7)
	if err := gen.Load(db); err != nil {
		b.Fatal(err)
	}
	db.SetPlanCacheMode(mode)
	return db, gen
}

// runHotPath replays stmts round-robin, one statement per op, after one
// warm-up pass that populates the caches. It reports the plan-cache hit
// fraction over the timed statements.
func runHotPath(b *testing.B, db *engine.DB, stmts []string) {
	for _, q := range stmts {
		if _, _, err := db.Exec(q); err != nil {
			b.Fatal(err)
		}
	}
	before := db.PlanCacheStats()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := db.Exec(stmts[i%len(stmts)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	s := db.PlanCacheStats()
	hits := float64(s.Hits - before.Hits + s.RebindHits - before.RebindHits)
	if n := hits + float64(s.Misses-before.Misses); n > 0 {
		b.ReportMetric(hits/n, "hit_rate")
	}
}

// BenchmarkHotPathUncached replays one fixed-parameter TPC-H batch with
// the plan cache off — the baseline the cached variants are measured
// against.
func BenchmarkHotPathUncached(b *testing.B) {
	db, gen := hotPathDB(b, engine.CacheOff)
	runHotPath(b, db, gen.Batch())
}

// BenchmarkHotPathCached replays the same fixed-parameter batch with
// the default exact-match cache: every timed statement is a statement-
// cache and plan-cache hit.
func BenchmarkHotPathCached(b *testing.B) {
	db, gen := hotPathDB(b, engine.CacheExact)
	runHotPath(b, db, gen.Batch())
}

// BenchmarkHotPathVaryingUncached replays many TPC-H batches with fresh
// query parameters per batch, cache off.
func BenchmarkHotPathVaryingUncached(b *testing.B) {
	db, gen := hotPathDB(b, engine.CacheOff)
	var stmts []string
	for _, batch := range gen.Batches(16) {
		stmts = append(stmts, batch...)
	}
	runHotPath(b, db, stmts)
}

// BenchmarkHotPathVaryingRebind replays the same varying-parameter
// batches in rebind mode: texts differ per batch, so statements are
// parsed fresh, but generic plans are reused with the new literals.
func BenchmarkHotPathVaryingRebind(b *testing.B) {
	db, gen := hotPathDB(b, engine.CacheRebind)
	var stmts []string
	for _, batch := range gen.Batches(16) {
		stmts = append(stmts, batch...)
	}
	runHotPath(b, db, stmts)
}

// seekStmts is a repeated-template point-lookup workload over the TPC-H
// schema: per-statement work is one primary-key seek, so planning
// overhead — what the cache removes — dominates each op. distinct
// controls how many parameterizations cycle (1 = one exact text).
func seekStmts(distinct int) []string {
	out := make([]string, distinct)
	for i := range out {
		out[i] = fmt.Sprintf(
			"SELECT l_quantity, l_extendedprice FROM lineitem WHERE l_orderkey = %d AND l_linenumber = 1",
			1+i*7)
	}
	return out
}

// BenchmarkHotPathSeekUncached is the planning-dominated baseline: the
// same point lookup optimized from scratch on every arrival.
func BenchmarkHotPathSeekUncached(b *testing.B) {
	db, _ := hotPathDB(b, engine.CacheOff)
	runHotPath(b, db, seekStmts(1))
}

// BenchmarkHotPathSeekCached is the same statement through the exact
// cache: parser, fingerprinter and optimizer are all skipped.
func BenchmarkHotPathSeekCached(b *testing.B) {
	db, _ := hotPathDB(b, engine.CacheExact)
	runHotPath(b, db, seekStmts(1))
}

// BenchmarkHotPathSeekRebind cycles many parameterizations of the
// template in rebind mode: each text is an exact hit in the statement
// tier after warm-up, and the plan tier serves every literal from the
// one cached generic plan.
func BenchmarkHotPathSeekRebind(b *testing.B) {
	db, _ := hotPathDB(b, engine.CacheRebind)
	runHotPath(b, db, seekStmts(97))
}

// BenchmarkHotPathSeekDurable is the durability probe on the engine's
// fastest statement: the cached seek on a database opened with
// engine.OpenDurable, a WAL writer installed. Reads never touch the
// log, so this must match BenchmarkHotPathSeekCached — the per-
// statement durability cost on the read hot path is one nil-check in
// the statement-commit epilogue. (The non-durable engine.Open path is
// covered by BenchmarkHotPathSeekCached itself; its budget vs the seed
// is ≤ 1%.)
func BenchmarkHotPathSeekDurable(b *testing.B) {
	db, err := engine.OpenDurable(engine.Config{Dir: b.TempDir(), Sync: wal.SyncNone})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	if err := tpch.NewGenerator(0.2, 7).Load(db); err != nil {
		b.Fatal(err)
	}
	db.SetPlanCacheMode(engine.CacheExact)
	runHotPath(b, db, seekStmts(1))
}

// idleFaultInjector plans every injection site at probability zero, so
// the engine takes the fault layer's full bookkeeping path without any
// fault ever firing.
func idleFaultInjector() *fault.Injector {
	inj := fault.New(1)
	for _, site := range []fault.Site{
		fault.PageRead, fault.PageWrite, fault.PageAlloc,
		fault.BTreeSplit, fault.BuildStep, fault.BuildFinish, fault.ExecStmt,
	} {
		inj.Plan(site, fault.Rule{Prob: 0})
	}
	return inj
}

// BenchmarkHotPathOverhead prices the tracing and fault layers on one
// loaded database, so each variant differs from "off" only in the layer
// toggled at runtime and not in per-instance memory layout. The seek
// variants run the engine's fastest statement, where any fixed cost is
// the largest fraction: sampled tracing (default stride) should stay
// within a few percent of off, a disarmed injector (the production
// configuration, one atomic load per site) within 1%; traced-all and
// fault-armed-idle bound the full bookkeeping paths. The batch pair
// shows the sampled-tracing overhead where execution dominates. A
// sub-1% delta needs rounds: repeat the command and compare each
// variant's best run.
func BenchmarkHotPathOverhead(b *testing.B) {
	db, gen := hotPathDB(b, engine.CacheExact)
	o := db.Observability()
	inj := idleFaultInjector()
	off := func() {
		o.DisableTracing()
		db.SetFaults(nil)
	}
	seek, batch := seekStmts(1), gen.Batch()
	for _, v := range []struct {
		name  string
		stmts []string
		setup func()
	}{
		{"seek/off", seek, off},
		{"seek/traced", seek, func() { off(); o.EnableTracing(0, 0) }},
		{"seek/traced-all", seek, func() { off(); o.EnableTracing(0, 1) }},
		{"seek/fault-disabled", seek, func() { off(); db.SetFaults(inj); inj.Disarm() }},
		{"seek/fault-armed-idle", seek, func() { off(); db.SetFaults(inj); inj.Arm() }},
		{"batch/off", batch, off},
		{"batch/traced", batch, func() { off(); o.EnableTracing(0, 0) }},
	} {
		b.Run(v.name, func(b *testing.B) {
			v.setup()
			runHotPath(b, db, v.stmts)
		})
	}
}

// --- executor benchmarks --------------------------------------------

// scanFilterBatch is the engine-comparison workload: wide scans with
// string prefilters, range predicates and grouped aggregates — the
// shapes the vectorized kernels target. Fixed parameters so row and
// vector runs replay identical work.
func scanFilterBatch() []string {
	return []string{
		`SELECT COUNT(*) FROM lineitem WHERE l_quantity BETWEEN 10 AND 40 AND l_discount <= 0.06`,
		`SELECT l_shipmode, COUNT(*) FROM lineitem WHERE l_shipmode LIKE '%AI%' GROUP BY l_shipmode ORDER BY l_shipmode`,
		`SELECT COUNT(*) FROM part WHERE p_name LIKE 'part name 0%'`,
		`SELECT COUNT(*) FROM part WHERE p_type LIKE '%BRASS'`,
		`SELECT COUNT(*) FROM orders WHERE o_orderpriority NOT LIKE '_-URGENT'`,
		`SELECT l_returnflag, SUM(l_quantity), COUNT(*) FROM lineitem WHERE l_quantity < 30 GROUP BY l_returnflag ORDER BY l_returnflag`,
		`SELECT COUNT(*) FROM lineitem WHERE l_shipmode IN ('AIR', 'RAIL', 'SHIP')`,
	}
}

// runBatch replays stmts as one op, after one warm-up pass, and reports
// the morsels dispatched to parallel regions per op.
func runBatch(b *testing.B, db *engine.DB, stmts []string) {
	for _, q := range stmts {
		if _, _, err := db.Exec(q); err != nil {
			b.Fatal(err)
		}
	}
	morsels := db.Observability().Reg.Counter("engine.exec_parallel_morsels")
	before := morsels.Value()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, q := range stmts {
			if _, _, err := db.Exec(q); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(morsels.Value()-before)/float64(b.N), "morsels/op")
}

// BenchmarkExecutor times raw execution on one TPC-H scale-2 database
// with the plan cache off. The workers=N matrix replays the fixed-
// parameter batch on the adaptive engine; results are byte-identical at
// every setting, so only time and morsels/op move, and no speedup can
// exceed what GOMAXPROCS allows. The row/vector pair pins one worker
// and isolates the vectorized kernels from parallelism: "batch" is the
// whole scan/filter batch, q0–q6 profile its statements one by one.
func BenchmarkExecutor(b *testing.B) {
	db := engine.Open()
	gen := tpch.NewGenerator(2, 1)
	if err := gen.Load(db); err != nil {
		b.Fatal(err)
	}
	db.SetPlanCacheMode(engine.CacheOff)
	batch := gen.Batch()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			db.SetExecWorkers(workers)
			runBatch(b, db, batch)
		})
	}
	db.SetExecWorkers(1)
	for _, mode := range []string{"row", "vector"} {
		if err := db.SetExecEngine(mode); err != nil {
			b.Fatal(err)
		}
		filters := scanFilterBatch()
		b.Run(mode+"/batch", func(b *testing.B) { runBatch(b, db, filters) })
		for i, q := range filters {
			b.Run(fmt.Sprintf("%s/q%d", mode, i), func(b *testing.B) { runBatch(b, db, []string{q}) })
		}
	}
}

// --- durability benchmarks ------------------------------------------

// BenchmarkWALCommit times single-row INSERT commits under each fsync
// policy, with one committer and with eight racing ones. Each committer
// writes its own table, so what the eight observe is group commit, not
// table-lock serialization. Under concurrency ns/op is wall time per
// acknowledged commit (inverse throughput), not one commit's latency;
// fsyncs/commit shows the batching: 0 under none, ~1 under always with
// one committer, below 1 when group commit amortizes.
func BenchmarkWALCommit(b *testing.B) {
	for _, policy := range []wal.SyncPolicy{wal.SyncNone, wal.SyncGroup, wal.SyncAlways} {
		for _, committers := range []int{1, 8} {
			b.Run(fmt.Sprintf("sync=%s/committers=%d", policy, committers), func(b *testing.B) {
				db, err := engine.OpenDurable(engine.Config{Dir: b.TempDir(), Sync: policy})
				if err != nil {
					b.Fatal(err)
				}
				defer db.Close()
				for t := 0; t < committers; t++ {
					db.MustExec(fmt.Sprintf("CREATE TABLE w%d (id INT, v INT, PRIMARY KEY (id))", t))
					db.MustExec(fmt.Sprintf("INSERT INTO w%d VALUES (-1, 0)", t)) // warm the caches
				}
				fsyncs := db.WAL().Fsyncs()
				var next atomic.Int64
				var wg sync.WaitGroup
				b.ResetTimer()
				for t := 0; t < committers; t++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for id := next.Add(1); id <= int64(b.N); id = next.Add(1) {
							if _, _, err := db.Exec(fmt.Sprintf("INSERT INTO w%d VALUES (%d, %d)", t, id, id%97)); err != nil {
								b.Error(err)
								return
							}
						}
					}()
				}
				wg.Wait()
				b.StopTimer()
				b.ReportMetric(float64(db.WAL().Fsyncs()-fsyncs)/float64(b.N), "fsyncs/commit")
			})
		}
	}
}

// BenchmarkWALRecovery loads TPC-H scale 0.5 durably without ever
// checkpointing. "replay" is a cold OpenDurable that rebuilds the whole
// dataset from the log (MB/s is log bytes replayed per second of
// recovery); "checkpoint" is the stop-the-world window of one
// Checkpoint: every table quiesced, full snapshot written and fsynced,
// log rolled. Replay runs first: a checkpoint truncates the log.
func BenchmarkWALRecovery(b *testing.B) {
	dir := b.TempDir()
	cfg := engine.Config{Dir: dir, Sync: wal.SyncNone}
	db, err := engine.OpenDurable(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := tpch.NewGenerator(0.5, 1).Load(db); err != nil {
		b.Fatal(err)
	}
	if err := db.Close(); err != nil {
		b.Fatal(err)
	}
	b.Run("replay", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			db, err := engine.OpenDurable(cfg)
			if err != nil {
				b.Fatal(err)
			}
			info := db.Recovery()
			if info.SnapshotSeq != 0 || info.ReplayedBatches == 0 {
				b.Fatalf("recovery restored snapshot %d and replayed %d batches, want a full log replay",
					info.SnapshotSeq, info.ReplayedBatches)
			}
			b.SetBytes(info.ReplayedBytes)
			if err := db.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("checkpoint", func(b *testing.B) {
		db, err := engine.OpenDurable(cfg)
		if err != nil {
			b.Fatal(err)
		}
		defer db.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := db.Checkpoint(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkOnlineSI measures the constant-time single-index observer.
func BenchmarkOnlineSI(b *testing.B) {
	on := singleindex.New(10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		on.Observe(float64(i%7), float64(i%5))
	}
}

// BenchmarkOptSchedule measures the offline single-index DP.
func BenchmarkOptSchedule(b *testing.B) {
	n := 1000
	c0 := make([]float64, n)
	c1 := make([]float64, n)
	for i := range c0 {
		c0[i] = float64(i % 13)
		c1[i] = float64(i % 7)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := singleindex.OptSchedule(c0, c1, 25); err != nil {
			b.Fatal(err)
		}
	}
}
