package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"onlinetuner/internal/datum"
	"onlinetuner/internal/storage"
)

// TestDMLLocateWorkGuard is the machine-independent work bound of DML:
// a primary-key UPDATE or DELETE examines at most one index entry of a
// 10,000-row table, a non-sargable one still examines every row, and
// EXPLAIN shows the seek under the DML root.
func TestDMLLocateWorkGuard(t *testing.T) {
	const rows = 10000
	db := Open()
	db.MustExec("CREATE TABLE W (id INT, a INT, b INT, PRIMARY KEY (id))")
	for lo := 0; lo < rows; lo += 1000 {
		vals := make([]string, 0, 1000)
		for i := lo; i < lo+1000; i++ {
			vals = append(vals, fmt.Sprintf("(%d, %d, %d)", i, i%97, i%5))
		}
		db.MustExec("INSERT INTO W VALUES " + strings.Join(vals, ", "))
	}
	if err := db.Analyze("W"); err != nil {
		t.Fatal(err)
	}

	// locateNode returns the DML root's only child, the access path.
	locateNode := func(q string) AnalyzedNode {
		t.Helper()
		a, err := db.ExplainAnalyze(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if len(a.Nodes) != 2 || a.Nodes[1].Depth != 1 {
			t.Fatalf("%s: want a DML root with one locate child, got %+v", q, a.Nodes)
		}
		if a.Result.Affected != int(a.Nodes[1].ActualRows) {
			t.Fatalf("%s: affected %d, locate found %d", q, a.Result.Affected, a.Nodes[1].ActualRows)
		}
		return a.Nodes[1]
	}
	for _, q := range []string{
		"UPDATE W SET b = b + 1 WHERE id = 4242",
		"DELETE FROM W WHERE id = 777",
	} {
		n := locateNode(q)
		if !strings.HasPrefix(n.Label, "IndexSeek") {
			t.Errorf("%s: located through %q, want an IndexSeek", q, n.Label)
		}
		if n.Scanned > 1 || n.ActualRows != 1 {
			t.Errorf("%s: scanned %d entries for %d rows, want <= 1 for 1", q, n.Scanned, n.ActualRows)
		}
	}
	n := locateNode("UPDATE W SET b = 0 WHERE a + b = 3")
	if !strings.HasPrefix(n.Label, "SeqScan") || n.Scanned != rows-1 {
		t.Errorf("non-sargable UPDATE: %q scanned %d, want a SeqScan of all %d rows", n.Label, n.Scanned, rows-1)
	}

	s, err := db.ExplainString("UPDATE W SET b = 1 WHERE id = 3")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[1], "Update W") || !strings.HasPrefix(lines[2], "  IndexSeek") {
		t.Errorf("EXPLAIN UPDATE does not show the seek under Update:\n%s", s)
	}
}

// heapModel is the DML oracle's table: a slot array in RID order with
// tombstones and a LIFO free list that INSERT reuses first. It is
// written from the heap's documented contract and shares no code with
// the engine.
type heapModel struct {
	slots [][]int64 // nil = free slot
	free  []int
}

func (m *heapModel) insert(r []int64) {
	if n := len(m.free); n > 0 {
		m.slots[m.free[n-1]] = r
		m.free = m.free[:n-1]
		return
	}
	m.slots = append(m.slots, r)
}

// update applies set to every matching row and returns the count.
func (m *heapModel) update(match func([]int64) bool, set func([]int64) []int64) int {
	n := 0
	for rid, r := range m.slots {
		if r != nil && match(r) {
			m.slots[rid] = set(r)
			n++
		}
	}
	return n
}

// delete removes every matching row in RID order and returns the count.
func (m *heapModel) delete(match func([]int64) bool) int {
	n := 0
	for rid, r := range m.slots {
		if r != nil && match(r) {
			m.slots[rid] = nil
			m.free = append(m.free, rid)
			n++
		}
	}
	return n
}

func (m *heapModel) render() string {
	var sb strings.Builder
	for rid, r := range m.slots {
		if r != nil {
			fmt.Fprintf(&sb, "%d|%v\n", rid, r)
		}
	}
	return sb.String()
}

// renderHeap renders a table's live rows by RID in heapModel's format.
func renderHeap(t testing.TB, db *DB, table string) string {
	t.Helper()
	h := db.Mgr.Heap(table)
	if h == nil {
		t.Fatalf("table %s not materialized", table)
	}
	var sb strings.Builder
	h.Scan(func(rid storage.RID, r datum.Row) bool {
		vals := make([]int64, len(r))
		for i, d := range r {
			vals[i] = d.Int()
		}
		fmt.Fprintf(&sb, "%d|%v\n", rid, vals)
		return true
	})
	return sb.String()
}

func insertSQL(table string, rows [][]int64) string {
	vals := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = fmt.Sprint(v)
		}
		vals[i] = "(" + strings.Join(parts, ", ") + ")"
	}
	return "INSERT INTO " + table + " VALUES " + strings.Join(vals, ", ")
}

// dmlCase is one predicate shape of the invariance oracle: an UPDATE
// predicate and a DELETE predicate, as SQL and as Go, and the UPDATE's
// expected access path under each secondary index (keyed by its name).
type dmlCase struct {
	name     string
	upd, del string
	updFn    func(r []int64) bool
	delFn    func(r []int64) bool
	locators map[string]string
}

// T(k, n, g, a, b), PRIMARY KEY (k, n). The secondary index is ig on
// (g, a), or icov on (g, a, b, k, n), which holds every column and so
// can also serve a full IndexScan.
const (
	colK = iota
	colN
	colG
	colA
	colB
)

// TestDMLIndexConfigurationInvariance checks UPDATE/DELETE against a
// plain Go oracle with no secondary index and with one present. Rows
// are inserted in shuffled primary-key order, and a falls as the RID
// rises, so the primary key's and the secondary index's orders both
// differ from RID order. Affected counts, final rows by RID, the RIDs later
// INSERTs receive (free-list order, which shows matches are applied in
// RID order whichever path found them) and the state after a crash and
// WAL replay must all match the oracle.
func TestDMLIndexConfigurationInvariance(t *testing.T) {
	const nrows = 4000
	rng := rand.New(rand.NewSource(7))
	base := make([][]int64, nrows)
	for p, i := range rng.Perm(nrows) {
		base[p] = []int64{int64(i / 4), int64(i % 4), int64(i * 7 % 400), int64(10000 - p), int64(i * 13 % 50)}
	}
	cases := []dmlCase{
		{name: "pk point",
			upd: "k = 17 AND n = 2", updFn: func(r []int64) bool { return r[colK] == 17 && r[colN] == 2 },
			del: "k = 33 AND n = 1", delFn: func(r []int64) bool { return r[colK] == 33 && r[colN] == 1 },
			locators: map[string]string{"ig": "IndexSeek", "icov": "IndexSeek"}},
		{name: "pk prefix range",
			upd: "k >= 10 AND k < 20", updFn: func(r []int64) bool { return r[colK] >= 10 && r[colK] < 20 },
			del: "k > 50 AND k <= 58", delFn: func(r []int64) bool { return r[colK] > 50 && r[colK] <= 58 },
			locators: map[string]string{"ig": "IndexSeek", "icov": "IndexSeek"}},
		{name: "secondary equality",
			upd: "g = 3", updFn: func(r []int64) bool { return r[colG] == 3 },
			del: "g = 11", delFn: func(r []int64) bool { return r[colG] == 11 },
			locators: map[string]string{"ig": "IndexSeek ig", "icov": "IndexSeek icov"}},
		{name: "non-sargable",
			upd: "a + g < 9750", updFn: func(r []int64) bool { return r[colA]+r[colG] < 9750 },
			del: "b + g = 40", delFn: func(r []int64) bool { return r[colB]+r[colG] == 40 },
			locators: map[string]string{"ig": "SeqScan", "icov": "IndexScan icov"}},
	}
	follow := [][][]int64{
		{{1000, 0, 1, 1, 1}, {1001, 0, 2, 2, 2}, {1002, 0, 3, 3, 3}},
		{{2000, 0, 4, 4, 4}, {2001, 0, 5, 5, 5}},
	}
	for _, tc := range cases {
		for _, index := range []string{"", "ig", "icov"} {
			t.Run(fmt.Sprintf("%s/index=%s", tc.name, index), func(t *testing.T) {
				m := &heapModel{}
				for _, r := range base {
					m.insert(append([]int64(nil), r...))
				}
				dir := t.TempDir()
				db, err := OpenDurable(Config{Dir: dir})
				if err != nil {
					t.Fatal(err)
				}
				db.MustExec("CREATE TABLE T (k INT, n INT, g INT, a INT, b INT, PRIMARY KEY (k, n))")
				db.MustExec(insertSQL("T", base))
				switch index {
				case "ig":
					db.MustExec("CREATE INDEX ig ON T (g, a)")
				case "icov":
					db.MustExec("CREATE INDEX icov ON T (g, a, b, k, n)")
				}
				if err := db.Analyze("T"); err != nil {
					t.Fatal(err)
				}
				upd := "UPDATE T SET b = b + 1000, a = a - 1 WHERE " + tc.upd
				plan, err := db.ExplainString(upd)
				if err != nil {
					t.Fatal(err)
				}
				if want := tc.locators[index]; want != "" && !strings.Contains(plan, "\n  "+want) {
					t.Fatalf("UPDATE not located through %s:\n%s", want, plan)
				}

				want := m.update(tc.updFn, func(r []int64) []int64 {
					out := append([]int64(nil), r...)
					out[colB] += 1000
					out[colA]--
					return out
				})
				if got := db.MustExec(upd).Affected; got != want || want == 0 {
					t.Fatalf("UPDATE affected %d, oracle %d", got, want)
				}
				want = m.delete(tc.delFn)
				if got := db.MustExec("DELETE FROM T WHERE " + tc.del).Affected; got != want || want == 0 {
					t.Fatalf("DELETE affected %d, oracle %d", got, want)
				}
				for _, r := range follow[0] {
					m.insert(r)
				}
				db.MustExec(insertSQL("T", follow[0]))
				if got, want := renderHeap(t, db, "T"), m.render(); got != want {
					t.Fatalf("state differs from oracle:\n got: %s\nwant: %s", got, want)
				}

				db.Crash()
				db2, err := OpenDurable(Config{Dir: dir})
				if err != nil {
					t.Fatal(err)
				}
				defer db2.Close()
				checkConsistent(t, db2)
				for _, r := range follow[1] {
					m.insert(r)
				}
				db2.MustExec(insertSQL("T", follow[1]))
				if got, want := renderHeap(t, db2, "T"), m.render(); got != want {
					t.Fatalf("recovered state differs from oracle:\n got: %s\nwant: %s", got, want)
				}
			})
		}
	}
}
