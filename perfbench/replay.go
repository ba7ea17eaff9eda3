package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"onlinetuner/internal/core"
	"onlinetuner/internal/engine"
	"onlinetuner/internal/executor"
	"onlinetuner/internal/obs"
	"onlinetuner/internal/tpch"
	"onlinetuner/internal/wal"
	"onlinetuner/internal/workload"
)

// replaySpec is an in-process workload: one tuning scenario replayed as
// a single closed-loop stream.
type replaySpec struct {
	scenario   string
	scale      tpch.Scale
	statements int  // 0 keeps the scenario's default length
	durable    bool // replay on an OpenDurable database with WAL group commit
	// instances is the number of differently seeded scenarios a run
	// replays. Tuner decisions make the estimated cost of one scenario
	// swing with its seed; averaging instances steadies the figure.
	instances int
}

var (
	driftSpec = replaySpec{scenario: "drift", scale: 4, statements: 3000, instances: 1}
	stormSpec = replaySpec{scenario: "storm", scale: 2, durable: true, instances: 3}
)

// maxWall bounds a run's wall time well inside the harness's limit,
// whatever --seconds asks for.
const maxWall = 120 * time.Second

// pass is one complete replay of an instance on a freshly loaded
// database with a fresh tuner. Every pass of one instance replays the
// same statements, so its identity must repeat exactly.
type pass struct {
	traced     bool
	setup      time.Duration
	elapsed    time.Duration
	tallies    tallies
	rt         runtimeSample
	ctr        map[string]float64
	stmts      int
	wrong      int // results that differ from the untuned reference
	firstBad   int
	estCost    float64
	rows       int64
	writes     int
	walBytes   int64
	liveMB     float64
	att        attribution
	traces     []*obs.Trace
	memoHits   int64
	memoMisses int64

	// deterministic outcome of the pass
	transition float64
	builds     float64
	aborts     float64
	drops      int
	indexBytes int64
	dataBytes  int64
}

// identity is the part of a pass that must repeat exactly.
func (p *pass) identity() string {
	return fmt.Sprintf("est=%v transition=%v builds=%v aborts=%v drops=%d index_bytes=%d data_bytes=%d",
		p.estCost, p.transition, p.builds, p.aborts, p.drops, p.indexBytes, p.dataBytes)
}

// instance is one generated scenario: its statements, their classes
// and the results an untuned replay gives.
type instance struct {
	seed    int64
	w       *workload.Workload
	classes []class
	ref     []result
	passes  []*pass
}

// instanceSeed derives instance j's scenario and data seed from the
// run's seed; instance 0 uses the run's seed itself.
func instanceSeed(seed int64, j int) int64 { return seed + int64(j)*1_000_003 }

func newInstance(spec replaySpec, seed int64) (*instance, error) {
	w, err := workload.BuildScenario(spec.scenario, workload.ScenarioOptions{
		Scale: spec.scale, Seed: seed, Statements: spec.statements})
	if err != nil {
		return nil, err
	}
	in := &instance{seed: seed, w: w, classes: make([]class, len(w.Statements))}
	for i, s := range w.Statements {
		in.classes[i] = classify(s, nil)
	}
	// Reference: the same statements with no tuner attached. Index
	// configuration must never change a result.
	if in.ref, err = referenceResults(w); err != nil {
		return nil, err
	}
	return in, nil
}

// runReplay measures whole rounds of passes, one pass per instance per
// round, until the measured time reaches --seconds, so every instance
// weighs the same in every figure whatever the number of rounds. A
// traced run replays each instance twice per round, untraced then
// traced.
func runReplay(o options, spec replaySpec) (*outcome, error) {
	start := time.Now()
	sync := "none (in-memory)"
	if spec.durable {
		sync = wal.SyncGroup.String()
	}
	out := &outcome{stamp: newStamp(o, float64(spec.scale), sync)}
	insts := make([]*instance, spec.instances)
	want := time.Duration(o.seconds) * time.Second
	measured := map[bool]time.Duration{}
	rounds := 0
	var refTime time.Duration // generating instances and their untuned reference replays
	var passes []*pass
	run := func(in *instance, traced bool) (*pass, error) {
		runtime.GC()
		p, err := runPass(o, spec, in, traced)
		if err != nil {
			return nil, fmt.Errorf("instance seed %d: %w", in.seed, err)
		}
		in.passes = append(in.passes, p)
		return p, nil
	}
	modes := []bool{false}
	if o.trace {
		modes = append(modes, true)
	}
	for {
		for j := range insts {
			if insts[j] == nil {
				t0 := time.Now()
				in, err := newInstance(spec, instanceSeed(o.seed, j))
				if err != nil {
					return nil, err
				}
				insts[j] = in
				refTime += time.Since(t0)
			}
			for _, traced := range modes {
				p, err := run(insts[j], traced)
				if err != nil {
					return nil, err
				}
				passes = append(passes, p)
				measured[traced] += p.elapsed
			}
		}
		rounds++
		enough := measured[false] >= want
		if o.trace {
			enough = measured[false] >= want/2 && measured[true] >= want/2
		}
		if enough || time.Since(start) > maxWall {
			break
		}
	}
	// Every instance must have replayed twice for the determinism check;
	// an extra pass that the figures leave out settles it after one round.
	if rounds == 1 && !o.trace {
		if _, err := run(insts[0], false); err != nil {
			return nil, err
		}
	}

	// Correctness: every pass reproduces its instance's untuned results,
	// and the deterministic outcome of every pass of an instance equals
	// that of its first.
	mismatches, checked, first := 0, 0, ""
	same, repeats := true, 0
	for _, in := range insts {
		for _, p := range in.passes {
			mismatches += p.wrong
			checked += p.stmts
			if p.firstBad >= 0 && first == "" {
				first = fmt.Sprintf(" (first: instance seed %d statement %d)", in.seed, p.firstBad)
			}
			if t := p.tallies.total(); t.failed > 0 {
				out.check("no failed statements", false, "%d failed", t.failed)
			}
		}
		for _, p := range in.passes[1:] {
			repeats++
			if p.identity() != in.passes[0].identity() {
				same = false
				out.notes = append(out.notes, fmt.Sprintf("instance seed %d: %s differs from %s",
					in.seed, p.identity(), in.passes[0].identity()))
			}
		}
	}
	out.check("results equal untuned replay", mismatches == 0,
		"%d statements checked, %d differ%s", checked, mismatches, first)
	out.check("deterministic across passes", same && repeats > 0,
		"%d repeated passes match their instance's first pass", repeats)

	var untraced []*pass
	var setups, live []float64
	for _, p := range passes {
		setups = append(setups, p.setup.Seconds())
		if !p.traced {
			untraced = append(untraced, p)
			live = append(live, p.liveMB)
			out.tallies.merge(&p.tallies)
			out.measured += p.elapsed
		}
	}
	var rt runtimeSample
	var elapsed time.Duration
	stmts := 0
	var rates []float64
	for _, p := range untraced {
		rt.add(p.rt)
		elapsed += p.elapsed
		stmts += p.stmts
		rates = append(rates, float64(p.stmts)/p.elapsed.Seconds())
	}
	// The deterministic figures come from each instance's first pass.
	var cost, transition, builds, aborts float64
	var drops, scenarioStmts int
	var indexBytes, dataBytes int64
	for _, in := range insts {
		p := in.passes[0]
		cost += p.estCost
		transition += p.transition
		builds += p.builds
		aborts += p.aborts
		drops += p.drops
		indexBytes += p.indexBytes
		dataBytes += p.dataBytes
		scenarioStmts += p.stmts
	}
	m := float64(len(insts))
	out.notes = append(out.notes, fmt.Sprintf("%d rounds over %d instances of %q (%d statements each); %d measured passes, %d traced; %.1f s generating instances and their reference replays; %.1f s in all",
		rounds, len(insts), spec.scenario, len(insts[0].w.Statements), len(passes), len(passes)-len(untraced), refTime.Seconds(), time.Since(start).Seconds()))
	out.notes = append(out.notes, fmt.Sprintf("pass rates %.1f", rates))

	if !o.trace {
		if err := out.latencyMetrics(); err != nil {
			return nil, err
		}
		out.extra = append(out.extra,
			metric{"cpu_us_per_stmt", "us", 1e6 * rt.cpuSec / float64(stmts)},
			metric{"stmt_per_s", "1/s", median(rates)})
		out.e2e = append(out.e2e,
			metric{"est_cost_per_stmt", "cost", (cost + transition) / float64(scenarioStmts)},
			metric{"alloc_bytes_per_stmt", "B", rt.allocBytes / float64(stmts)},
			metric{"live_heap_mb", "MiB", median(live)},
			metric{"index_bytes_per_data_byte", "ratio", float64(indexBytes) / float64(dataBytes)},
			metric{"setup_s", "s", median(setups)},
		)
		return out, nil
	}

	// Traced run: counters from the untraced passes, spans from the
	// traced ones, and every span written out. Tuner outcomes are per
	// replay of the scenario.
	in := layerInputs{
		stmts:      stmts,
		ctr:        map[string]float64{},
		rt:         rt,
		drops:      float64(drops) / m,
		builds:     builds / m,
		aborts:     aborts / m,
		transition: transition / m,
		indexBytes: float64(indexBytes) / m,
		untracedPS: float64(stmts) / elapsed.Seconds(),
	}
	for _, p := range untraced {
		addInto(in.ctr, p.ctr)
		in.writes += p.writes
		in.rows += p.rows
		in.walBytes += p.walBytes
		in.memoHits += p.memoHits
		in.memoMisses += p.memoMisses
	}
	f, err := traceFile(o)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sw := newSpanWriter(f)
	var tracedTime time.Duration
	tracedStmts, tracedPasses := 0, 0
	var req int64
	for _, p := range passes {
		if !p.traced {
			continue
		}
		tracedPasses++
		tracedTime += p.elapsed
		tracedStmts += p.stmts
		mergeAttribution(&in.att, &p.att)
		for _, tr := range p.traces {
			req++
			sw.trace(req, tr)
		}
	}
	if err := sw.flush(); err != nil {
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	in.tracedPS = float64(tracedStmts) / tracedTime.Seconds()
	in.buildMS = float64(in.att.buildNS.Nanoseconds()) / 1e6 / float64(tracedPasses)
	layerMetrics(out, in)
	return out, nil
}

func mergeAttribution(dst, src *attribution) {
	dst.n += src.n
	dst.statement += src.statement
	for i := range dst.phase {
		dst.phase[i] += src.phase[i]
	}
	dst.unattrib += src.unattrib
	for c := range dst.exec {
		dst.exec[c] += src.exec[c]
		dst.execN[c] += src.execN[c]
	}
	dst.requests += src.requests
	dst.buildNS += src.buildNS
	dst.invalid += src.invalid
	if dst.firstError == nil {
		dst.firstError = src.firstError
	}
}

// referenceResults replays w on its own freshly loaded in-memory
// database with no tuner and keeps every result.
func referenceResults(w *workload.Workload) ([]result, error) {
	db := w.NewDB()
	defer db.Close()
	out := make([]result, len(w.Statements))
	for i, s := range w.Statements {
		rs, _, err := db.Exec(s)
		if err != nil {
			return nil, fmt.Errorf("reference statement %d: %w", i, err)
		}
		out[i] = canonical(rs, hasOrderBy(s))
	}
	return out, nil
}

func hasOrderBy(text string) bool { return strings.Contains(strings.ToUpper(text), "ORDER BY") }

// openScenarioDB loads the scenario's database the way the scenario's
// own NewDB does (TPC-H at the scenario's scale and seed, index budget
// twice the data bytes); a durable spec loads it into a fresh WAL
// directory, checkpoints it, and then runs with group commit.
func openScenarioDB(o options, spec replaySpec, inst *instance) (*engine.DB, string, error) {
	if !spec.durable {
		return inst.w.NewDB(), "", nil
	}
	dir, err := scratchDir(o, spec.scenario)
	if err != nil {
		return nil, "", err
	}
	db, err := loadDurable(dir, spec.scale, inst.seed)
	if err != nil {
		os.RemoveAll(dir)
		return nil, "", err
	}
	data, _ := storageBytes(db)
	db.Mgr.SetBudget(2 * data)
	return db, dir, nil
}

// loadDurable creates a durable TPC-H database in dir. The bulk load is
// logged without fsyncs and made durable by one checkpoint; statements
// after it commit under the shipped group-commit policy.
func loadDurable(dir string, scale tpch.Scale, seed int64) (*engine.DB, error) {
	db, err := engine.OpenDurable(engine.Config{Dir: dir, Sync: wal.SyncGroup})
	if err != nil {
		return nil, err
	}
	db.WAL().SetPolicy(wal.SyncNone)
	if err := tpch.NewGenerator(scale, seed).Load(db); err != nil {
		db.Close()
		return nil, err
	}
	if err := db.Checkpoint(); err != nil {
		db.Close()
		return nil, err
	}
	db.WAL().SetPolicy(wal.SyncGroup)
	return db, nil
}

func runPass(o options, spec replaySpec, inst *instance, traced bool) (*pass, error) {
	w, classes, ref := inst.w, inst.classes, inst.ref
	p := &pass{traced: traced, firstBad: -1}
	t0 := time.Now()
	db, dir, err := openScenarioDB(o, spec, inst)
	if err != nil {
		return nil, err
	}
	if dir != "" {
		defer os.RemoveAll(dir)
	}
	defer db.Close()
	tuner := core.Attach(db, core.DefaultOptions())
	defer tuner.Close()
	p.setup = time.Since(t0)

	reg := db.Observability().Reg
	builds := reg.Counter("tuner.builds_completed")
	ctr0 := counters(db)
	memo0 := tuner.MemoStats()
	wal0 := int64(0)
	if dir != "" {
		wal0 = dirBytes(dir)
	}
	rt0 := readRuntime()
	for i, text := range w.Statements {
		var (
			rs   *executor.ResultSet
			info *engine.QueryInfo
			err  error
			tr   *obs.Trace
		)
		b0 := builds.Value()
		s := time.Now()
		if traced {
			tr = obs.NewTrace(text)
			rs, info, err = db.ExecContext(obs.WithTrace(context.Background(), tr), text)
			tr.Finish()
		} else {
			rs, info, err = db.Exec(text)
		}
		d := time.Since(s)
		p.elapsed += d
		p.stmts++
		p.tallies[classes[i]].record(d, err, false)
		if err != nil {
			continue
		}
		if traced {
			p.att.add(tr, classes[i], builds.Value() != b0)
			p.traces = append(p.traces, tr)
		}
		if got := canonical(rs, hasOrderBy(text)); !got.equal(&ref[i]) {
			p.wrong++
			if p.firstBad < 0 {
				p.firstBad = i
			}
		}
		p.estCost += info.EstCost
		p.rows += int64(len(rs.Rows)) + int64(rs.Affected)
		if classes[i] == classWrite {
			p.writes++
		}
	}
	p.rt = readRuntime().sub(rt0)
	p.ctr = deltas(counters(db), ctr0)
	if dir != "" {
		p.walBytes = dirBytes(dir) - wal0
	}
	memo := tuner.MemoStats()
	p.memoHits, p.memoMisses = memo.Hits-memo0.Hits, memo.Misses-memo0.Misses
	m := tuner.Metrics()
	p.transition = m.TransitionCost
	p.builds = float64(m.BuildsCompleted)
	p.aborts = float64(m.BuildsAborted)
	p.drops = countDrops(tuner)
	p.dataBytes, p.indexBytes = storageBytes(db)
	if !traced {
		p.liveMB = liveHeapMB()
	}
	return p, nil
}
