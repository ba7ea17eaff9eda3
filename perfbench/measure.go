package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"onlinetuner/internal/datum"
	"onlinetuner/internal/engine"
	"onlinetuner/internal/executor"
)

// class is a statement class. Latency is reported per class because the
// classes stress different layers: a point read is dominated by
// per-request overhead, a scan by execution, a write by index
// maintenance and the WAL.
type class int

const (
	classPoint class = iota // read pinned to one primary-key value
	classScan               // any other read: secondary-key lookups, ranges, aggregates
	classWrite              // INSERT / UPDATE / DELETE
	numClasses
)

var classNames = [numClasses]string{"point", "scan", "write"}

// classify assigns a statement text to its class. pkEq lists the
// "WHERE <primary key> =" prefixes that make a read a point read.
func classify(text string, pkEq []string) class {
	t := strings.TrimSpace(text)
	if len(t) >= 6 {
		switch strings.ToUpper(t[:6]) {
		case "UPDATE", "INSERT", "DELETE":
			return classWrite
		}
	}
	for _, p := range pkEq {
		if strings.Contains(t, p) {
			return classPoint
		}
	}
	return classScan
}

// failedLatency marks a failed or rejected statement in a latency
// sample: it sorts above every completed statement, so a failure counts
// as missing any latency limit instead of vanishing from the sample.
const failedLatency = time.Duration(math.MaxInt64)

// tally accounts one statement class: every attempt lands in exactly one
// of ok, failed or rejected, and contributes one latency sample.
type tally struct {
	attempted, ok, failed, rejected int
	lat                             []time.Duration
}

func (t *tally) record(d time.Duration, err error, rejected bool) {
	t.attempted++
	switch {
	case err == nil:
		t.ok++
		t.lat = append(t.lat, d)
	case rejected:
		t.rejected++
		t.lat = append(t.lat, failedLatency)
	default:
		t.failed++
		t.lat = append(t.lat, failedLatency)
	}
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.ok += o.ok
	t.failed += o.failed
	t.rejected += o.rejected
	t.lat = append(t.lat, o.lat...)
}

// tallies holds one tally per class.
type tallies [numClasses]tally

func (ts *tallies) merge(o *tallies) {
	for c := range ts {
		ts[c].merge(&o[c])
	}
}

func (ts *tallies) total() tally {
	var out tally
	for c := range ts {
		out.attempted += ts[c].attempted
		out.ok += ts[c].ok
		out.failed += ts[c].failed
		out.rejected += ts[c].rejected
	}
	return out
}

// reads merges the point and scan tallies.
func (ts *tallies) reads() *tally {
	var out tally
	out.merge(&ts[classPoint])
	out.merge(&ts[classScan])
	return &out
}

// all merges every class's tally.
func (ts *tallies) all() *tally {
	var out tally
	for c := range ts {
		out.merge(&ts[c])
	}
	return &out
}

// quantiles summarises a latency sample: the median and the tail, the
// highest whole percentile (at most 99) with at least ten samples
// beyond it.
type quantiles struct {
	n       int
	p50     time.Duration
	tailPct int
	tail    time.Duration
	hasTail bool
}

func summarize(lat []time.Duration) quantiles {
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	q := quantiles{n: len(s)}
	if len(s) == 0 {
		return q
	}
	q.p50 = nearestRank(s, 50)
	for p := 99; p > 50; p-- {
		if len(s)-rank(len(s), p) >= 10 {
			q.tailPct, q.tail, q.hasTail = p, nearestRank(s, p), true
			break
		}
	}
	return q
}

// rank is the 1-based nearest-rank position of percentile p in n samples.
func rank(n, p int) int {
	r := (p*n + 99) / 100
	if r < 1 {
		r = 1
	}
	return r
}

func nearestRank(sorted []time.Duration, p int) time.Duration {
	return sorted[rank(len(sorted), p)-1]
}

// micros renders a latency in µs; a failed sample reads as the whole
// measured time, the longest any statement could have waited.
func micros(d, measured time.Duration) float64 {
	if d == failedLatency {
		d = measured
	}
	return float64(d.Nanoseconds()) / 1e3
}

// metric is one reported figure.
type metric struct {
	Name  string
	Unit  string
	Value float64
}

// runtimeSample is a point-in-time reading of the Go runtime's
// counters and of the process's CPU time.
type runtimeSample struct {
	allocBytes, gcCycles float64
	gcCPU, totalCPU      float64
	// cpuSec is user plus system CPU time the process has used. Unlike
	// wall time it does not grow while the host runs someone else.
	cpuSec float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		// RUSAGE_SELF with a valid buffer cannot fail.
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	cpu := float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
	return runtimeSample{allocBytes: v(0), gcCycles: v(1), gcCPU: v(2), totalCPU: v(3), cpuSec: cpu}
}

func (a runtimeSample) sub(b runtimeSample) runtimeSample {
	return runtimeSample{
		allocBytes: a.allocBytes - b.allocBytes,
		gcCycles:   a.gcCycles - b.gcCycles,
		gcCPU:      a.gcCPU - b.gcCPU,
		totalCPU:   a.totalCPU - b.totalCPU,
		cpuSec:     a.cpuSec - b.cpuSec,
	}
}

func (a *runtimeSample) add(b runtimeSample) {
	a.allocBytes += b.allocBytes
	a.gcCycles += b.gcCycles
	a.gcCPU += b.gcCPU
	a.totalCPU += b.totalCPU
	a.cpuSec += b.cpuSec
}

// liveHeapMB forces a collection and returns the bytes held by live
// heap objects, in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// result is a statement's output in comparable form. Rows keep their
// order only under ORDER BY; otherwise SQL leaves the order open and
// the rows are sorted. Floats stay numbers and compare with a relative
// tolerance, because an aggregate sums its rows in access-path order,
// which differs between an index and a heap scan.
type result struct {
	cols     string
	rows     [][]cell
	affected int
}

type cell struct {
	s       string // rendering of a non-float value
	f       float64
	isFloat bool
}

// floatTolerance bounds the relative difference of two floats that
// count as the same value.
const floatTolerance = 1e-9

func canonical(rs *executor.ResultSet, ordered bool) result {
	r := result{cols: strings.Join(rs.Columns, ","), affected: rs.Affected, rows: make([][]cell, len(rs.Rows))}
	keys := make([]string, len(rs.Rows))
	for i, row := range rs.Rows {
		cells := make([]cell, len(row))
		var key strings.Builder
		for j, d := range row {
			if d.Kind() == datum.KFloat {
				cells[j] = cell{f: d.Float(), isFloat: true}
				fmt.Fprintf(&key, "%.6g\x00", d.Float())
			} else {
				cells[j] = cell{s: d.String()}
				key.WriteString(cells[j].s)
				key.WriteByte(0)
			}
		}
		r.rows[i], keys[i] = cells, key.String()
	}
	if !ordered {
		sort.Sort(byKey{r.rows, keys})
	}
	return r
}

type byKey struct {
	rows [][]cell
	keys []string
}

func (b byKey) Len() int           { return len(b.rows) }
func (b byKey) Less(i, j int) bool { return b.keys[i] < b.keys[j] }
func (b byKey) Swap(i, j int) {
	b.rows[i], b.rows[j] = b.rows[j], b.rows[i]
	b.keys[i], b.keys[j] = b.keys[j], b.keys[i]
}

func (a *result) equal(b *result) bool {
	if a.cols != b.cols || a.affected != b.affected || len(a.rows) != len(b.rows) {
		return false
	}
	for i := range a.rows {
		if len(a.rows[i]) != len(b.rows[i]) {
			return false
		}
		for j, x := range a.rows[i] {
			y := b.rows[i][j]
			if x.isFloat != y.isFloat || x.s != y.s {
				return false
			}
			if x.isFloat && math.Abs(x.f-y.f) > floatTolerance*math.Max(math.Abs(x.f), math.Abs(y.f)) {
				return false
			}
		}
	}
	return true
}

// storageBytes returns the bytes held by table heaps and by every
// index (primary keys included, so the ratio of the two is never zero).
func storageBytes(db *engine.DB) (data, index int64) {
	for _, t := range db.Cat.Tables() {
		if h := db.Mgr.Heap(t.Name); h != nil {
			data += h.Bytes()
		}
		for _, pi := range db.Mgr.TableIndexes(t.Name) {
			index += pi.Bytes()
		}
	}
	return data, index
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}

// stamp identifies the machine and the inputs a result was measured
// with.
type stamp struct {
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	SourceHash string  `json:"source_sha256"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Scale      float64 `json:"scale"`
	Sync       string  `json:"sync"`
	Seconds    int     `json:"seconds"`
	Traced     bool    `json:"traced"`
}

func newStamp(o options, scale float64, sync string) stamp {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return stamp{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Commit:     commit,
		SourceHash: sourceHash(o.root),
		Workload:   o.workload,
		Seed:       o.seed,
		Scale:      scale,
		Sync:       sync,
		Seconds:    o.seconds,
		Traced:     o.trace,
	}
}

// sourceHash fingerprints the Go sources and module files under root,
// which identifies the code measured even where no git metadata exists.
func sourceHash(root string) string {
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if n := d.Name(); d.Type().IsRegular() && (strings.HasSuffix(n, ".go") || n == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
