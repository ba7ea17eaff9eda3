// Command perfbench is the repository's benchmark. One invocation runs
// one workload against the engine, daemon and online tuner as shipped
// (engine defaults, core.DefaultOptions with synchronous builds), checks
// every output for correctness, and prints the workload's metrics; the
// last line of standard output is one JSON object.
//
// Workloads (see README.md beside this file for why each exists):
//
//	oltp_wire     TPC-H scale 1, durable (WAL group commit), served over
//	              loopback TCP to two closed-loop clients: Zipf-skewed
//	              primary-key lookups, secondary-key lookups and
//	              single-row updates.
//	olap_drift    the "drift" tuning scenario at scale 4, in process:
//	              OLAP and OLTP epochs alternate, so the tuner creates
//	              and drops indexes at every flip.
//	update_storm  the "storm" tuning scenario at scale 2 on a durable
//	              database: query lulls followed by wide updates that
//	              punish every index the tuner keeps. Runnable by hand;
//	              not listed in BENCHMARK.json, because its figures swing
//	              with the seed by more than a gate allows.
//
// Usage:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--dir <work dir>]
//
// With --trace 0 the JSON carries the end-to-end metrics, measured with
// tracing off. With --trace 1 it carries the per-layer metrics: the run
// measures both untraced and traced, derives each layer's time from
// the engine's statement traces, and writes every span to
// <dir>/traces/<workload>-seed<n>.jsonl.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	dir      string // scratch space for WAL directories and trace files
	root     string // source tree the benchmark measures
}

// check is one correctness assertion of a run.
type check struct {
	name   string
	ok     bool
	detail string
}

// outcome is everything one run reports.
type outcome struct {
	stamp    stamp
	tallies  tallies       // every measured statement
	measured time.Duration // the measured time the tallies cover
	e2e      []metric      // end-to-end metrics (untraced runs)
	extra    []metric      // reported for humans only, not gated
	layers   []metric      // per-layer metrics (traced runs)
	checks   []check
	notes    []string
}

func (o *outcome) check(name string, ok bool, format string, args ...any) {
	o.checks = append(o.checks, check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
}

func (o *outcome) correct() bool {
	for _, c := range o.checks {
		if !c.ok {
			return false
		}
	}
	return len(o.checks) > 0
}

// latencyMetrics reports, per statement class, the median and tail
// latency over every measured statement of the run. Only the median
// over all statements is gated: on a small shared machine the tails and
// the per-class medians swing from run to run by more than any usable
// bound (see README.md). The rest is reported for humans.
func (o *outcome) latencyMetrics() error {
	add := func(name string, gated bool, t *tally) error {
		q := summarize(t.lat)
		if !q.hasTail {
			return fmt.Errorf("%s: %d samples are too few for a tail percentile", name, q.n)
		}
		p50 := metric{name + "_p50_us", "us", micros(q.p50, o.measured)}
		if gated {
			o.e2e = append(o.e2e, p50)
		} else {
			o.extra = append(o.extra, p50)
		}
		o.extra = append(o.extra, metric{name + "_tail_us", "us", micros(q.tail, o.measured)})
		o.notes = append(o.notes, fmt.Sprintf("%s: %d samples; tail percentile p%d", name, q.n, q.tailPct))
		return nil
	}
	if err := add("stmt", true, o.tallies.all()); err != nil {
		return err
	}
	if err := add("write", false, &o.tallies[classWrite]); err != nil {
		return err
	}
	if err := add("read", false, o.tallies.reads()); err != nil {
		return err
	}
	for c := classPoint; c < classWrite; c++ {
		if o.tallies[c].attempted > 0 {
			if err := add(classNames[c], false, &o.tallies[c]); err != nil {
				return err
			}
		}
	}
	return nil
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: oltp_wire | olap_drift | update_storm")
	flag.Int64Var(&o.seed, "seed", 1, "seed every input is generated from")
	flag.IntVar(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.StringVar(&o.dir, "dir", ".bench_build/work", "scratch directory for WAL files and traces")
	flag.Parse()
	o.trace = trace == 1
	if trace != 0 && trace != 1 || o.seconds < 1 {
		fail(fmt.Errorf("--trace must be 0 or 1 and --seconds at least 1"))
	}
	wd, err := os.Getwd()
	if err != nil {
		fail(err)
	}
	o.root = wd
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		fail(err)
	}
	var out *outcome
	switch o.workload {
	case "oltp_wire":
		out, err = runWire(o)
	case "olap_drift":
		out, err = runReplay(o, driftSpec)
	case "update_storm":
		out, err = runReplay(o, stormSpec)
	default:
		err = fmt.Errorf("unknown workload %q (want oltp_wire, olap_drift or update_storm)", o.workload)
	}
	if err != nil {
		fail(err)
	}
	if err := out.print(o); err != nil {
		fail(err)
	}
	if !out.correct() {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// print writes the human-readable report and then the result line.
func (out *outcome) print(o options) error {
	st, err := json.Marshal(out.stamp)
	if err != nil {
		return err
	}
	fmt.Printf("stamp %s\n", st)
	for c := class(0); c < numClasses; c++ {
		t := &out.tallies[c]
		if t.attempted > 0 {
			fmt.Printf("class %-5s attempted=%d ok=%d failed=%d rejected=%d\n",
				classNames[c], t.attempted, t.ok, t.failed, t.rejected)
		}
	}
	tot := out.tallies.total()
	failedFrac := 0.0
	if tot.attempted > 0 {
		failedFrac = float64(tot.failed+tot.rejected) / float64(tot.attempted)
	}
	show := append(append([]metric(nil), out.e2e...), out.extra...)
	show = append(show, metric{"failed_frac", "ratio", failedFrac})
	sort.SliceStable(show, func(i, j int) bool { return show[i].Name < show[j].Name })
	if !o.trace {
		for _, m := range show {
			fmt.Printf("e2e   %-26s %14.4f %s\n", m.Name, m.Value, m.Unit)
		}
	}
	for _, m := range out.layers {
		fmt.Printf("layer %-36s %14.4f %s\n", m.Name, m.Value, m.Unit)
	}
	for _, n := range out.notes {
		fmt.Printf("note  %s\n", n)
	}
	for _, c := range out.checks {
		status := "ok  "
		if !c.ok {
			status = "FAIL"
		}
		fmt.Printf("check %s %s: %s\n", status, c.name, c.detail)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]value{}
	report := out.e2e
	if o.trace {
		report = out.layers
	}
	for _, m := range report {
		v := m.Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not a number", m.Name)
		}
		ms[m.Name] = value{v, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.correct(), tot.attempted, tot.failed + tot.rejected, ms})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// scratchDir makes a fresh directory under the run's scratch space.
func scratchDir(o options, name string) (string, error) {
	return os.MkdirTemp(o.dir, name+"-")
}

// traceFile is where a traced run writes its spans.
func traceFile(o options) (*os.File, error) {
	dir := filepath.Join(o.dir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed)))
}
