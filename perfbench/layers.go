package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"onlinetuner/internal/engine"
	"onlinetuner/internal/obs"
)

// counters reads every registry metric of db as a number; a histogram
// contributes "<name>.sum" and "<name>.count".
func counters(db *engine.DB) map[string]float64 {
	out := map[string]float64{}
	for name, v := range db.Observability().Reg.Snapshot() {
		switch m := v.(type) {
		case int64:
			out[name] = float64(m)
		case float64:
			out[name] = m
		case obs.HistogramSnapshot:
			out[name+".sum"] = m.Sum
			out[name+".count"] = float64(m.Count)
		}
	}
	return out
}

// deltas returns end minus start for every key of end.
func deltas(end, start map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(end))
	for k, v := range end {
		out[k] = v - start[k]
	}
	return out
}

func addInto(dst, src map[string]float64) {
	for k, v := range src {
		dst[k] += v
	}
}

// phases are the engine's statement pipeline spans, in order; each
// belongs to one layer: engine (parse, lock-wait), optimizer,
// executor and core (the tuner's observe step).
var phases = [...]string{"parse", "lock-wait", "optimize", "execute", "observe"}

// attribution accumulates layer times over traced statements. A
// layer's time in one statement is the duration of its pipeline phase
// span, which contains the layer's own nested spans (the executor's
// parallel regions); whatever part of the statement span no phase
// covers is unattributed.
type attribution struct {
	n          int
	statement  time.Duration // Σ statement span (root) durations
	phase      [len(phases)]time.Duration
	unattrib   time.Duration
	exec       [numClasses]time.Duration
	execN      [numClasses]int
	requests   int
	buildNS    time.Duration // Σ observe phases of statements that built an index
	invalid    int
	firstError error
}

// add folds one finished trace in. built marks a statement during
// which the tuner completed an index build.
func (a *attribution) add(tr *obs.Trace, c class, built bool) {
	if err := tr.Validate(); err != nil {
		a.invalid++
		if a.firstError == nil {
			a.firstError = err
		}
		return
	}
	spans := tr.Spans()
	a.n++
	root := spans[0].Duration()
	a.statement += root
	a.requests += tr.Requests
	var covered time.Duration
	for i := 1; i < len(spans); i++ {
		sp := &spans[i]
		if sp.Parent != 0 {
			continue
		}
		covered += sp.Duration()
		for p := range phases {
			if phases[p] == sp.Name {
				a.phase[p] += sp.Duration()
			}
		}
		switch sp.Name {
		case "execute":
			a.exec[c] += sp.Duration()
			a.execN[c]++
		case "observe":
			if built {
				a.buildNS += sp.Duration()
			}
		}
	}
	// The phases of one statement are sequential, so their durations
	// add up to the part of the root they cover.
	a.unattrib += root - covered
}

func (a *attribution) mean(d time.Duration) float64 {
	if a.n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / 1e3 / float64(a.n)
}

// spanWriter streams spans as JSON lines: one object per span with its
// request, name, parent and offsets from the request's start.
type spanWriter struct {
	w   *bufio.Writer
	err error
}

type spanLine struct {
	Request int64  `json:"req"`
	Kind    string `json:"kind"` // "client" (benchmark span) or "engine"
	Span    string `json:"span"`
	Parent  int32  `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Attr    string `json:"attr,omitempty"`
}

func newSpanWriter(w io.Writer) *spanWriter { return &spanWriter{w: bufio.NewWriterSize(w, 1<<16)} }

func (s *spanWriter) line(l spanLine) {
	if s.err != nil {
		return
	}
	b, err := json.Marshal(l)
	if err == nil {
		b = append(b, '\n')
		_, err = s.w.Write(b)
	}
	s.err = err
}

func (s *spanWriter) trace(req int64, tr *obs.Trace) {
	for _, sp := range tr.Spans() {
		s.line(spanLine{Request: req, Kind: "engine", Span: sp.Name, Parent: sp.Parent,
			StartNS: sp.Start.Nanoseconds(), EndNS: sp.End.Nanoseconds(), Attr: sp.Attr})
	}
}

func (s *spanWriter) flush() error {
	if s.err != nil {
		return s.err
	}
	return s.w.Flush()
}

// layerInputs are the measurements the per-layer metrics derive from.
// Counter-based figures cover the untraced window; span-based figures
// cover the traced window.
type layerInputs struct {
	stmts       int                // statements completed in the untraced window
	writes      int                // writes acknowledged in the untraced window
	rows        int64              // rows returned plus rows affected, untraced window
	ctr         map[string]float64 // registry deltas, untraced window
	rt          runtimeSample      // runtime deltas, untraced window
	memoHits    int64
	memoMisses  int64
	walBytes    int64
	drops       float64 // tuner outcomes: per scenario replay, or per wire run
	builds      float64
	aborts      float64
	transition  float64
	indexBytes  float64
	buildMS     float64
	att         attribution // traced window
	rttUS       float64     // mean benchmark span around each request, traced window
	admissionUS float64     // mean admission wait, traced window (wire only)
	untracedPS  float64
	tracedPS    float64
	wire        bool
}

func per(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetrics derives the per-layer metrics and the trace
// reconciliation check.
func layerMetrics(out *outcome, in layerInputs) {
	c := in.ctr
	stmts := float64(in.stmts)
	writes := float64(in.writes)
	a := &in.att
	engineUS := a.mean(a.statement)
	var rtt, admission, residual float64
	if in.wire {
		rtt, admission = in.rttUS, in.admissionUS
		residual = rtt - admission - engineUS
	}
	lookups := c["plancache.hits"] + c["plancache.rebind_hits"] + c["plancache.misses"]
	tunerQ := c["tuner.queries"]
	m := []metric{
		{"server.rtt_us", "us", rtt},
		{"server.admission_wait_us", "us", admission},
		{"server.residual_us", "us", residual},
		{"engine.parse_us", "us", a.mean(a.phase[0])},
		{"engine.stmt_cache_hit_ratio", "ratio", per(c["plancache.stmt_hits"], stmts)},
		{"engine.plan_cache_hit_ratio", "ratio", per(c["plancache.hits"]+c["plancache.rebind_hits"], lookups)},
		{"engine.plan_invalidations_per_kstmt", "1/kstmt", 1000 * per(c["plancache.invalidations"], stmts)},
		{"engine.lock_wait_us", "us", a.mean(a.phase[1])},
		{"engine.retries", "count", c["engine.stale_retries"] + c["engine.transient_retries"]},
		{"optimizer.optimize_us", "us", a.mean(a.phase[2])},
		{"optimizer.whatif_requests_per_stmt", "count", per(float64(a.requests), float64(a.n))},
		{"executor.execute_us", "us", a.mean(a.phase[3])},
	}
	for cl := class(0); cl < numClasses; cl++ {
		m = append(m, metric{"executor.execute_" + classNames[cl] + "_us", "us",
			per(float64(a.exec[cl].Nanoseconds())/1e3, float64(a.execN[cl]))})
	}
	m = append(m,
		metric{"executor.parallel_morsels_per_stmt", "count", per(c["engine.exec_parallel_morsels"], stmts)},
		metric{"executor.rows_per_stmt", "count", per(float64(in.rows), stmts)},
		metric{"runtime.gc_cpu_frac", "ratio", per(in.rt.gcCPU, in.rt.totalCPU)},
		metric{"runtime.gc_cycles_per_kstmt", "1/kstmt", 1000 * per(in.rt.gcCycles, stmts)},
		metric{"core.observe_us", "us", a.mean(a.phase[4])},
		metric{"core.line1_us", "us", per(c["tuner.line1_ns"]/1e3, tunerQ)},
		metric{"core.lines2_8_us", "us", per(c["tuner.lines2_8_ns"]/1e3, tunerQ)},
		metric{"core.lines9_18_us", "us", per(c["tuner.lines9_18_ns"]/1e3, tunerQ)},
		metric{"core.build_ms_total", "ms", in.buildMS},
		metric{"core.builds_completed", "count", in.builds},
		metric{"core.builds_aborted", "count", in.aborts},
		metric{"core.indexes_dropped", "count", in.drops},
		metric{"core.transition_cost", "cost", in.transition},
		metric{"whatif.memo_hit_ratio", "ratio", per(float64(in.memoHits), float64(in.memoHits+in.memoMisses))},
		metric{"storage.index_bytes_end", "B", in.indexBytes},
		metric{"wal.fsyncs_per_write", "count", per(c["wal.fsyncs"], writes)},
		metric{"wal.appends_per_write", "count", per(c["wal.appends"], writes)},
		metric{"wal.bytes_per_write", "B", per(float64(in.walBytes), writes)},
		metric{"obs.trace_overhead_frac", "ratio", per(in.untracedPS, in.tracedPS) - 1},
	)
	// Reconciliation: the phases must cover the traced statement span,
	// and over the wire the engine's share plus admission must fit inside
	// the client's round trip (the residual is the wire layer's own
	// time: socket, framing, JSON and rendering).
	span := engineUS
	if in.wire {
		span = rtt
	}
	unattrib := per(a.mean(a.unattrib), span)
	m = append(m, metric{"obs.trace_unattributed_frac", "ratio", unattrib})
	out.layers = m

	out.check("traces valid", a.invalid == 0 && a.n > 0,
		"%d traced statements, %d invalid (%v)", a.n, a.invalid, a.firstError)
	out.check("trace reconciliation", unattrib <= reconcileTolerance && residual >= 0,
		"unattributed %.2f%% of the traced span (tolerance %.0f%%), wire residual %.1fus",
		100*unattrib, 100*reconcileTolerance, residual)
	out.notes = append(out.notes, fmt.Sprintf(
		"traced statement span %.1fus = phases %.1fus + unattributed %.1fus; round trip %.1fus",
		engineUS, engineUS-a.mean(a.unattrib), a.mean(a.unattrib), span))
}

// reconcileTolerance bounds the share of a traced span that no layer
// accounts for.
const reconcileTolerance = 0.05

// largest returns the largest k durations of ds.
func largest(ds []time.Duration, k int) []time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] > s[j] })
	if k > len(s) {
		k = len(s)
	}
	return s[:k]
}
