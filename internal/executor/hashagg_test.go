package executor

import (
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"onlinetuner/internal/catalog"
	"onlinetuner/internal/datum"
	"onlinetuner/internal/plan"
	"onlinetuner/internal/sql"
	"onlinetuner/internal/storage"
)

// groupByB is a 3-group aggregate over the fixture table R(id, a, b):
// GROUP BY b (= id % 3) with one of each accumulator shape.
func groupByB(cat *catalog.Catalog) (*plan.SeqScan, *plan.HashAgg) {
	scan := &plan.SeqScan{Table: "R", Alias: "R"}
	scan.Out = rSchema(cat)
	agg := &plan.HashAgg{
		Child:   scan,
		GroupBy: []sql.Expr{&sql.ColumnRef{Column: "b"}},
		Aggs: []plan.AggSpec{
			{Func: "COUNT", Star: true, Name: "n"},
			{Func: "SUM", Arg: &sql.ColumnRef{Column: "id"}, Name: "s"},
			{Func: "MIN", Arg: &sql.ColumnRef{Column: "a"}, Name: "mn"},
			{Func: "AVG", Arg: &sql.ColumnRef{Column: "id"}, Name: "av"},
		},
	}
	agg.Out = []plan.ColRef{{Column: "n"}, {Column: "s"}, {Column: "mn"}, {Column: "av"}}
	return scan, agg
}

// bytesPerRun reports the average heap bytes one exec of p allocates.
// The collector is held off while it measures: a GC empties the sync
// pools, and a refill would charge a pool miss to whichever run
// happened to follow the cycle.
func bytesPerRun(t *testing.T, ex *Executor, p plan.Node, runs int) float64 {
	t.Helper()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if _, err := ex.exec(p, nil); err != nil { // warm pools
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := ex.exec(p, nil); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestHashAggMemoryProportionalToGroups pins the streaming fold: the
// aggregate's own allocations scale with its groups and the morsel
// chunks in flight, not with its input. Measured as the aggregate's
// bytes minus its child scan's, per input row, over 5 morsels.
func TestHashAggMemoryProportionalToGroups(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation counts are not meaningful under -race (sync.Pool drops items at random)")
	}
	// Before the streaming fold the eval stage materialized a rendered
	// key and an argument slice for every input row. Measured that way
	// on a 2-core x86-64 box (Go 1.24), this aggregate allocated 266 B
	// per input row on the row engine and 203-208 B on the vector engine,
	// at workers 1 and 4. The bound is 5x below the lower figure.
	const baseline = 203.0
	const rows = 4*morselRows + 1000
	cat, _, ex, _ := fixture(t, rows, false)
	scan, agg := groupByB(cat)
	for _, mode := range []EngineMode{EngineRow, EngineVector} {
		for _, w := range []int{1, 4} {
			ex.SetEngineMode(mode)
			ex.SetWorkers(w)
			got, err := ex.exec(agg, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 3 {
				t.Fatalf("%v/w%d: %d groups, want 3", mode, w, len(got))
			}
			perRow := (bytesPerRun(t, ex, agg, 10) - bytesPerRun(t, ex, scan, 10)) / rows
			t.Logf("%v/w%d: %.1f B per input row", mode, w, perRow)
			if perRow*5 > baseline {
				t.Errorf("%v/w%d: aggregate allocates %.1f B per input row, want <= %.1f (5x below the per-row eval design)",
					mode, w, perRow, baseline/5)
			}
		}
	}
}

// mixedTable builds T(id, g, v, w, x) across five morsels. g cycles
// through 3 groups; v, w and x are floats whose sums depend on
// accumulation order, except that morsel 1 mixes ints into v and w
// (the vector kernels fall back to scalar there), morsel 3 puts a
// string into w and morsel 4 a string into x (both raise arithmetic
// errors, with different messages).
func mixedTable(t *testing.T) (*catalog.Catalog, *storage.Manager, *plan.SeqScan) {
	t.Helper()
	cat := catalog.New()
	tbl, err := catalog.NewTable("T", []catalog.Column{
		{Name: "id", Kind: datum.KInt}, {Name: "g", Kind: datum.KString},
		{Name: "v", Kind: datum.KFloat}, {Name: "w", Kind: datum.KFloat}, {Name: "x", Kind: datum.KFloat},
	}, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.AddTable(tbl); err != nil {
		t.Fatal(err)
	}
	mgr := storage.NewManager(cat)
	if err := mgr.CreateTable("T"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4*morselRows+500; i++ {
		f := datum.NewFloat(float64(i)*0.37 + 1e-3/float64(i+1))
		v, w, x := f, f, f
		switch morsel := i / morselRows; {
		case morsel == 1 && i%2 == 0:
			v, w = datum.NewInt(int64(i)), datum.NewInt(int64(i))
		case morsel == 3 && i == 3*morselRows+17:
			w = datum.NewString("m3")
		case morsel == 4 && i == 4*morselRows+3:
			x = datum.NewString("m4")
		}
		g := datum.NewString([]string{"alpha", "beta", "gamma"}[(i/7)%3])
		if _, _, err := mgr.Insert("T", datum.Row{datum.NewInt(int64(i)), g, v, w, x}); err != nil {
			t.Fatal(err)
		}
	}
	scan := &plan.SeqScan{Table: "T", Alias: "T"}
	scan.Out = plan.TableSchema(tbl, "T")
	return cat, mgr, scan
}

func col(name string) sql.Expr { return &sql.ColumnRef{Column: name} }

func plus(l, r sql.Expr) sql.Expr { return &sql.BinaryExpr{Op: "+", Left: l, Right: r} }

func times(l, r sql.Expr) sql.Expr { return &sql.BinaryExpr{Op: "*", Left: l, Right: r} }

func half() sql.Expr { return &sql.Literal{Value: datum.NewFloat(0.5)} }

// TestHashAggFallbackAndErrorByteIdentical drives the streaming fold
// through a middle morsel whose vector kernel falls back to scalar and
// through later morsels that raise errors. Rows, group order, float
// sums and the first error must equal workers = 1 on the row engine at
// every worker count and engine mode.
func TestHashAggFallbackAndErrorByteIdentical(t *testing.T) {
	cat, mgr, scan := mixedTable(t)
	ex := New(cat, mgr)
	mk := func(aggs ...plan.AggSpec) *plan.HashAgg {
		agg := &plan.HashAgg{Child: scan, GroupBy: []sql.Expr{col("g")}, Aggs: aggs}
		for _, a := range aggs {
			agg.Out = append(agg.Out, plan.ColRef{Column: a.Name})
		}
		return agg
	}
	cases := []struct {
		name    string
		agg     *plan.HashAgg
		wantErr string
	}{
		{"fallback", mk(
			plan.AggSpec{Func: "FIRST", Arg: col("g"), Name: "g"},
			plan.AggSpec{Func: "SUM", Arg: plus(col("v"), half()), Name: "s"},
			plan.AggSpec{Func: "AVG", Arg: times(col("v"), half()), Name: "av"},
			plan.AggSpec{Func: "MIN", Arg: col("v"), Name: "mn"},
			plan.AggSpec{Func: "MAX", Arg: col("v"), Name: "mx"},
			plan.AggSpec{Func: "COUNT", Star: true, Name: "n"},
		), ""},
		{"error", mk(
			plan.AggSpec{Func: "SUM", Arg: plus(col("w"), half()), Name: "sw"},
			plan.AggSpec{Func: "SUM", Arg: times(half(), col("x")), Name: "sx"},
		), "VARCHAR + FLOAT"},
	}
	for _, tc := range cases {
		ex.SetEngineMode(EngineRow)
		ex.SetWorkers(1)
		want, wantErr := ex.exec(tc.agg, nil)
		if tc.wantErr == "" {
			if wantErr != nil {
				t.Fatalf("%s: reference failed: %v", tc.name, wantErr)
			}
			if len(want) != 3 || want[0][0].Compare(datum.NewString("alpha")) != 0 {
				t.Fatalf("%s: reference groups %v, want alpha, beta, gamma first-appearance order", tc.name, want)
			}
		} else if wantErr == nil || !strings.Contains(wantErr.Error(), tc.wantErr) {
			t.Fatalf("%s: reference error %v, want the morsel-3 error %q", tc.name, wantErr, tc.wantErr)
		}
		for _, mode := range []EngineMode{EngineRow, EngineVector, EngineAuto} {
			for _, w := range []int{1, 2, 4, 8} {
				ex.SetEngineMode(mode)
				ex.SetWorkers(w)
				got, err := ex.exec(tc.agg, nil)
				if fmt.Sprint(err) != fmt.Sprint(wantErr) {
					t.Fatalf("%s %v/w%d: error %v, want %v", tc.name, mode, w, err, wantErr)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %v/w%d: rows\n%v\nwant\n%v", tc.name, mode, w, got, want)
				}
			}
		}
	}
}
