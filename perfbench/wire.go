package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	"onlinetuner/internal/core"
	"onlinetuner/internal/engine"
	"onlinetuner/internal/server"
	"onlinetuner/internal/tpch"
	"onlinetuner/internal/wal"
)

const (
	wireScale   = tpch.Scale(1)
	wireClients = 2    // closed-loop connections; at most one per core of the reference box
	wireWarmup  = 1500 // untimed statements per client before measuring
	wireSetups  = 5    // set-ups per run; setup_s is their median
	// windowLength is the length of one throughput window: the run is
	// measured in one piece and its requests are cut into windows by
	// completion time afterwards; stmt_per_s is the median window rate.
	windowLength = time.Second
	// wireZipfS skews key popularity: the hottest 512 keys of each
	// domain draw about nine in ten requests, so the 512-entry
	// statement and plan caches can hold the hot set but not the tail.
	wireZipfS = 1.1
)

// pkPoint marks the statements that read one primary-key value.
var pkPoint = []string{"WHERE o_orderkey = "}

// wireGen draws one client's statements: 70% orders primary-key
// lookups, 20% secondary-key lookups (lineitem by part, orders by
// customer), 10% single-row updates. Keys follow a Zipf law over a
// seeded permutation of each key domain.
type wireGen struct {
	r             *rand.Rand
	orders, parts *zipfKeys
	customers     *zipfKeys
}

type zipfKeys struct {
	z    *rand.Zipf
	perm []int
}

func newZipfKeys(r *rand.Rand, n int) *zipfKeys {
	return &zipfKeys{z: rand.NewZipf(r, wireZipfS, 1, uint64(n-1)), perm: r.Perm(n)}
}

func (k *zipfKeys) draw() int { return k.perm[k.z.Uint64()] }

func newWireGen(seed int64, stream string, client int) *wireGen {
	h := seed*1_000_003 + int64(client)*7919
	for _, c := range stream {
		h = h*31 + int64(c)
	}
	r := rand.New(rand.NewSource(h))
	rows := wireScale.Rows()
	return &wireGen{
		r:         r,
		orders:    newZipfKeys(r, rows["orders"]),
		parts:     newZipfKeys(r, rows["part"]),
		customers: newZipfKeys(r, rows["customer"]),
	}
}

// wireStmt is one generated request with what its answer must be.
type wireStmt struct {
	text  string
	class class
	kind  int // which check applies
	key   int
}

const (
	kindOrder = iota
	kindPart
	kindCustomer
	kindUpdate
)

func (g *wireGen) next() wireStmt {
	switch x := g.r.Intn(100); {
	case x < 70:
		k := g.orders.draw()
		return wireStmt{fmt.Sprintf("SELECT o_orderkey, o_custkey, o_totalprice FROM orders WHERE o_orderkey = %d", k), classPoint, kindOrder, k}
	case x < 80:
		k := g.parts.draw()
		return wireStmt{fmt.Sprintf("SELECT l_orderkey, l_linenumber, l_extendedprice FROM lineitem WHERE l_partkey = %d", k), classScan, kindPart, k}
	case x < 90:
		k := g.customers.draw()
		return wireStmt{fmt.Sprintf("SELECT o_orderkey, o_totalprice FROM orders WHERE o_custkey = %d", k), classScan, kindCustomer, k}
	default:
		k := g.orders.draw()
		return wireStmt{fmt.Sprintf("UPDATE orders SET o_shippriority = o_shippriority + 1 WHERE o_orderkey = %d", k), classWrite, kindUpdate, k}
	}
}

// truth is what the loaded data says each lookup must return. The mix
// never changes the columns it checks.
type truth struct {
	custOf       map[int]string // o_orderkey -> o_custkey
	partRows     map[int]int    // l_partkey -> lineitem rows
	customerRows map[int]int    // o_custkey -> orders rows
}

func loadTruth(db *engine.DB) (*truth, error) {
	t := &truth{custOf: map[int]string{}, partRows: map[int]int{}, customerRows: map[int]int{}}
	rs, err := db.Query("SELECT o_orderkey, o_custkey FROM orders")
	if err != nil {
		return nil, err
	}
	for _, r := range rs.Rows {
		t.custOf[int(r[0].Int())] = r[1].String()
		t.customerRows[int(r[1].Int())]++
	}
	rs, err = db.Query("SELECT l_partkey FROM lineitem")
	if err != nil {
		return nil, err
	}
	for _, r := range rs.Rows {
		t.partRows[int(r[0].Int())]++
	}
	return t, nil
}

// verify checks one successful response against the truth.
func (t *truth) verify(s wireStmt, res *server.StmtResult) error {
	switch s.kind {
	case kindOrder:
		if len(res.Rows) != 1 || res.Rows[0][0] != strconv.Itoa(s.key) || res.Rows[0][1] != t.custOf[s.key] {
			return fmt.Errorf("order %d: got %v", s.key, res.Rows)
		}
	case kindPart:
		if len(res.Rows) != t.partRows[s.key] {
			return fmt.Errorf("part %d: %d rows, want %d", s.key, len(res.Rows), t.partRows[s.key])
		}
	case kindCustomer:
		if len(res.Rows) != t.customerRows[s.key] {
			return fmt.Errorf("customer %d: %d rows, want %d", s.key, len(res.Rows), t.customerRows[s.key])
		}
	case kindUpdate:
		if res.Affected != 1 {
			return fmt.Errorf("update %d: affected %d, want 1", s.key, res.Affected)
		}
	}
	return nil
}

// wireEnv is one set-up daemon: a durable database with the tuner
// attached, served on loopback, and the connected clients.
type wireEnv struct {
	dir        string
	db         *engine.DB
	tuner      *core.Tuner
	srv        *server.Server
	errc       <-chan error
	clients    []*server.Client
	truth      *truth
	sum0       int64 // SUM(o_shippriority) right after the load
	acked      int64 // updates acknowledged since the load
	wrong      int   // responses that failed verification
	firstWrong error
}

func (e *wireEnv) stopServer() {
	for _, c := range e.clients {
		c.Close()
	}
	e.clients = nil
	if e.srv != nil {
		e.srv.Abort()
		<-e.errc
		e.srv = nil
	}
}

func (e *wireEnv) close() {
	e.stopServer()
	e.tuner.Close()
	e.db.Close()
	os.RemoveAll(e.dir)
}

func setupWire(o options) (*wireEnv, time.Duration, error) {
	t0 := time.Now()
	dir, err := scratchDir(o, "oltp")
	if err != nil {
		return nil, 0, err
	}
	db, err := loadDurable(dir, wireScale, o.seed)
	if err != nil {
		os.RemoveAll(dir)
		return nil, 0, err
	}
	e := &wireEnv{dir: dir, db: db, tuner: core.Attach(db, core.DefaultOptions())}
	fail := func(err error) (*wireEnv, time.Duration, error) {
		e.close()
		return nil, 0, err
	}
	if e.truth, err = loadTruth(db); err != nil {
		return fail(err)
	}
	if e.sum0, err = shipPrioritySum(db); err != nil {
		return fail(err)
	}
	e.srv = server.New(db, server.Config{})
	addr, errc, err := e.srv.Listen("127.0.0.1:0")
	if err != nil {
		e.srv = nil
		return fail(err)
	}
	e.errc = errc
	for i := 0; i < wireClients; i++ {
		c, err := server.Dial(addr.String())
		if err != nil {
			return fail(err)
		}
		c.Timeout = 30 * time.Second
		e.clients = append(e.clients, c)
	}
	// Warm-up: the tuner sees enough secondary-key lookups to build its
	// indexes, and the caches fill, before anything is timed.
	if _, err := e.drive(o, "warmup", 0, wireWarmup, false); err != nil {
		return fail(err)
	}
	return e, time.Since(t0), nil
}

func shipPrioritySum(db *engine.DB) (int64, error) {
	rs, err := db.Query("SELECT SUM(o_shippriority) FROM orders")
	if err != nil {
		return 0, err
	}
	if len(rs.Rows) != 1 {
		return 0, fmt.Errorf("sum: %d rows", len(rs.Rows))
	}
	return rs.Rows[0][0].Int(), nil
}

// clientRun is one client's record of a window.
type clientRun struct {
	tallies tallies
	done    []time.Duration // completion time of each successful request, from the window's start
	estCost float64
	rows    int64
	writes  int
	spans   [][2]time.Time // start and end of each Client.Do, when traced
	err     error
}

// windowRates counts the requests completed in each consecutive window
// of length d and returns the per-second rates; done holds completion
// times measured from the start. The trailing partial window is dropped.
func windowRates(done []time.Duration, total, d time.Duration) []float64 {
	counts := make([]int, int(total/d))
	for _, t := range done {
		if i := int(t / d); i < len(counts) {
			counts[i]++
		}
	}
	rates := make([]float64, len(counts))
	for i, n := range counts {
		rates[i] = float64(n) / d.Seconds()
	}
	return rates
}

// drive runs every client's closed loop until the deadline passes or,
// with limit > 0, until each client has issued limit statements.
func (e *wireEnv) drive(o options, stream string, window time.Duration, limit int, keepSpans bool) ([]*clientRun, error) {
	runs := make([]*clientRun, len(e.clients))
	t0 := time.Now()
	deadline := t0.Add(window)
	var wg sync.WaitGroup
	var mu sync.Mutex
	for i, c := range e.clients {
		run := &clientRun{}
		runs[i] = run
		g := newWireGen(o.seed, stream, i)
		wg.Add(1)
		go func(c *server.Client) {
			defer wg.Done()
			for n := 0; ; n++ {
				if limit > 0 && n >= limit || limit == 0 && !time.Now().Before(deadline) {
					return
				}
				s := g.next()
				op := server.OpQuery
				if s.class == classWrite {
					op = server.OpExec
				}
				start := time.Now()
				resp, err := c.Do(&server.Request{Op: op, SQL: s.text})
				end := time.Now()
				if keepSpans {
					run.spans = append(run.spans, [2]time.Time{start, end})
				}
				var wireErr *server.WireError
				if err == nil && resp.Error != nil {
					err = resp.Error
				}
				if err != nil && !errors.As(err, &wireErr) {
					// Transport failure: the connection is unusable.
					run.tallies[s.class].record(0, err, false)
					run.err = err
					return
				}
				run.tallies[s.class].record(end.Sub(start), err, server.IsOverload(err))
				if err != nil {
					continue
				}
				run.done = append(run.done, end.Sub(t0))
				if verr := e.truth.verify(s, &resp.StmtResult); verr != nil {
					mu.Lock()
					e.wrong++
					if e.firstWrong == nil {
						e.firstWrong = verr
					}
					mu.Unlock()
				}
				run.estCost += resp.Cost
				run.rows += int64(len(resp.Rows)) + int64(resp.Affected)
				if s.class == classWrite {
					run.writes++
				}
			}
		}(c)
	}
	wg.Wait()
	for _, r := range runs {
		e.acked += int64(r.writes)
		if r.err != nil {
			return runs, fmt.Errorf("%s: client connection failed: %w", stream, r.err)
		}
	}
	return runs, nil
}

// wireWindow is one measured window's totals.
type wireWindow struct {
	elapsed              time.Duration
	tallies              tallies
	estCost              float64
	rows                 int64
	writes               int
	ctr                  map[string]float64
	rt                   runtimeSample
	walBytes             int64
	memoHits, memoMisses int64
	transition           float64
	spans                [][2]time.Time
	done                 []time.Duration
	builds               float64
}

func (e *wireEnv) measure(o options, stream string, d time.Duration, traced bool) (*wireWindow, error) {
	runtime.GC()
	w := &wireWindow{}
	ctr0 := counters(e.db)
	memo0 := e.tuner.MemoStats()
	m0 := e.tuner.Metrics()
	wal0 := dirBytes(e.dir)
	rt0 := readRuntime()
	start := time.Now()
	runs, err := e.drive(o, stream, d, 0, traced)
	w.elapsed = time.Since(start)
	w.rt = readRuntime().sub(rt0)
	if err != nil {
		return nil, err
	}
	w.walBytes = dirBytes(e.dir) - wal0
	w.ctr = deltas(counters(e.db), ctr0)
	memo := e.tuner.MemoStats()
	w.memoHits, w.memoMisses = memo.Hits-memo0.Hits, memo.Misses-memo0.Misses
	m := e.tuner.Metrics()
	w.transition = m.TransitionCost - m0.TransitionCost
	w.builds = float64(m.BuildsCompleted - m0.BuildsCompleted)
	for _, r := range runs {
		w.tallies.merge(&r.tallies)
		w.estCost += r.estCost
		w.rows += r.rows
		w.writes += r.writes
		w.spans = append(w.spans, r.spans...)
		w.done = append(w.done, r.done...)
	}
	return w, nil
}

func runWire(o options) (*outcome, error) {
	out := &outcome{stamp: newStamp(o, float64(wireScale), wal.SyncGroup.String())}
	var setups []float64
	var env *wireEnv
	for i := 0; i < wireSetups; i++ {
		runtime.GC()
		e, d, err := setupWire(o)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d.Seconds())
		if i < wireSetups-1 {
			e.close()
			continue
		}
		env = e
	}
	defer func() {
		if env != nil {
			env.close()
		}
	}()
	events0 := len(env.tuner.Events())
	drops0 := countDrops(env.tuner)

	// One untraced measurement, cut into windows afterwards; a traced
	// run measures half the time untraced and half traced.
	full := time.Duration(o.seconds) * time.Second
	if o.trace {
		full /= 2
	}
	untraced, err := env.measure(o, "run", full, false)
	if err != nil {
		return nil, err
	}
	rates := windowRates(untraced.done, untraced.elapsed, windowLength)
	out.tallies, out.measured = untraced.tallies, untraced.elapsed
	out.notes = append(out.notes, fmt.Sprintf("window rates %.0f", rates))
	var traced *wireWindow
	if o.trace {
		ob := env.db.Observability()
		ob.EnableTracing(1<<17, 1)
		var err error
		traced, err = env.measure(o, "traced", full, true)
		ob.DisableTracing()
		if err != nil {
			return nil, err
		}
	}
	completed := untraced.tallies.total().ok
	live := 0.0
	if !o.trace {
		if err := out.latencyMetrics(); err != nil {
			return nil, err
		}
		// The latency samples have served; drop them so live_heap_mb
		// counts the program's heap, not the benchmark's buffers, which
		// grow with the request rate.
		for c := range out.tallies {
			out.tallies[c].lat, untraced.tallies[c].lat = nil, nil
		}
		untraced.done = nil
		live = liveHeapMB()
	}
	data, index := storageBytes(env.db)

	// Correctness: every response verified; the updates all landed; and
	// they survive a crash.
	out.check("responses match loaded data", env.wrong == 0,
		"%d wrong responses (first: %v)", env.wrong, env.firstWrong)
	sum, err := shipPrioritySum(env.db)
	if err != nil {
		return nil, err
	}
	out.check("acknowledged updates applied", sum == env.sum0+env.acked,
		"SUM(o_shippriority) %d, load %d + %d acknowledged updates", sum, env.sum0, env.acked)
	env.stopServer()
	env.tuner.Close()
	env.db.Crash()
	db2, err := engine.OpenDurable(engine.Config{Dir: env.dir, Sync: wal.SyncGroup})
	if err != nil {
		out.check("recovery after crash", false, "reopen: %v", err)
	} else {
		sum2, err := shipPrioritySum(db2)
		out.check("acknowledged updates survive a crash", err == nil && sum2 == env.sum0+env.acked,
			"after crash and recovery SUM(o_shippriority) %d (err %v), want %d", sum2, err, env.sum0+env.acked)
		db2.Close()
	}
	out.notes = append(out.notes, fmt.Sprintf("%d clients; warm-up %d statements per client; %d tuner events during warm-up",
		wireClients, wireWarmup, events0))

	if !o.trace {
		out.extra = append(out.extra,
			metric{"cpu_us_per_stmt", "us", 1e6 * untraced.rt.cpuSec / float64(completed)},
			metric{"stmt_per_s", "1/s", median(rates)})
		out.e2e = append(out.e2e,
			metric{"est_cost_per_stmt", "cost", (untraced.estCost + untraced.transition) / float64(completed)},
			metric{"alloc_bytes_per_stmt", "B", untraced.rt.allocBytes / float64(completed)},
			metric{"live_heap_mb", "MiB", live},
			metric{"index_bytes_per_data_byte", "ratio", float64(index) / float64(data)},
			metric{"setup_s", "s", median(setups)},
		)
		return out, nil
	}

	in := layerInputs{
		wire:       true,
		stmts:      completed,
		writes:     untraced.writes,
		rows:       untraced.rows,
		ctr:        untraced.ctr,
		rt:         untraced.rt,
		memoHits:   untraced.memoHits,
		memoMisses: untraced.memoMisses,
		walBytes:   untraced.walBytes,
		drops:      float64(countDrops(env.tuner) - drops0),
		builds:     untraced.builds + traced.builds,
		transition: untraced.transition + traced.transition,
		indexBytes: float64(index),
		untracedPS: float64(completed) / untraced.elapsed.Seconds(),
	}
	tracedOK := traced.tallies.total().ok
	in.tracedPS = float64(tracedOK) / traced.elapsed.Seconds()
	in.aborts = traced.ctr["tuner.builds_aborted"] + untraced.ctr["tuner.builds_aborted"]
	if n := traced.ctr["server.admitted"]; n > 0 {
		in.admissionUS = traced.ctr["server.queue_wait_ns.sum"] / 1e3 / n
	}
	var rtt time.Duration
	for _, s := range traced.spans {
		rtt += s[1].Sub(s[0])
	}
	in.rttUS = float64(rtt.Nanoseconds()) / 1e3 / float64(len(traced.spans))

	// Engine traces come from the sampler ring; a wire request cannot yet
	// be joined to its engine trace, so attribution works on means.
	f, err := traceFile(o)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sw := newSpanWriter(f)
	t0 := traced.spans[0][0]
	for _, s := range traced.spans {
		if s[0].Before(t0) {
			t0 = s[0]
		}
	}
	for i, s := range traced.spans {
		sw.line(spanLine{Request: int64(i + 1), Kind: "client", Span: "client.do", Parent: -1,
			StartNS: s[0].Sub(t0).Nanoseconds(), EndNS: s[1].Sub(t0).Nanoseconds()})
	}
	var observes []time.Duration
	ring := env.db.Observability().Traces()
	for i, tr := range ring {
		in.att.add(tr, classify(tr.Statement, pkPoint), false)
		if sp := tr.FindSpan("observe"); sp != nil {
			observes = append(observes, sp.Duration())
		}
		sw.trace(int64(len(traced.spans)+i+1), tr)
	}
	if err := sw.flush(); err != nil {
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	// Builds happen inside the observe phase of the statement that
	// triggered them; without a request join, the k longest observe
	// phases stand for the window's k builds.
	for _, d := range largest(observes, int(traced.builds)) {
		in.buildMS += float64(d.Nanoseconds()) / 1e6
	}
	if len(ring) < tracedOK {
		out.notes = append(out.notes, fmt.Sprintf("trace ring kept %d of %d traced statements", len(ring), tracedOK))
	}
	layerMetrics(out, in)
	return out, nil
}

func countDrops(t *core.Tuner) int {
	n := 0
	for _, e := range t.Events() {
		if e.Kind == core.EvDrop {
			n++
		}
	}
	return n
}
