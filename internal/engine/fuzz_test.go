package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"onlinetuner/internal/sql"
)

// FuzzRewrite is the rewrite pack's semantic fuzz harness: any SELECT
// the parser accepts must return byte-identical rows (in execution
// order) whether the optimizer runs with every rule on or every rule
// off, and must fail on both sides or neither. The corpus seeds the
// shapes the rules rewrite — IN / EXISTS / NOT IN subqueries, ORDER BY
// ... LIMIT, bare MIN/MAX, multi-table joins — plus degenerate
// fragments. Only SELECTs are replayed so the two databases stay
// identical across iterations.
func FuzzRewrite(f *testing.F) {
	for _, s := range []string{
		"SELECT id, a FROM R WHERE a < 50 ORDER BY a DESC, id LIMIT 10",
		"SELECT id FROM R ORDER BY b, id LIMIT 0",
		"SELECT MIN(a) FROM R",
		"SELECT MAX(b), MIN(b) FROM R",
		"SELECT MIN(x) FROM S WHERE y = 3",
		"SELECT id FROM R WHERE id IN (SELECT id FROM S WHERE x < 10)",
		"SELECT id FROM R WHERE id NOT IN (SELECT id FROM S)",
		"SELECT id FROM R WHERE EXISTS (SELECT * FROM S WHERE S.id = R.id AND x > 5)",
		"SELECT id FROM R WHERE NOT EXISTS (SELECT * FROM S WHERE S.id = R.id)",
		"SELECT a, COUNT(*) FROM R WHERE EXISTS (SELECT * FROM S WHERE S.id = R.id) GROUP BY a ORDER BY a LIMIT 5",
		"SELECT R.id, S.y FROM R, S WHERE R.id = S.id AND a < 20 ORDER BY R.id LIMIT 7",
		"SELECT d FROM R, S WHERE R.id = S.id",
		"SELECT MAX(e) FROM R WHERE a = 17",
		"SELECT id FROM R WHERE a IN (SELECT x FROM S) ORDER BY id DESC LIMIT 3",
		"SELECT COUNT(*) FROM R, S WHERE R.id = S.id AND x = 1",
		"SELECT 1 FROM R LIMIT 1",
	} {
		f.Add(s)
	}
	dbOn := openRS(f, 300)
	dbOff := openRS(f, 300)
	if err := dbOff.SetRules("none"); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, text string) {
		stmt, err := sql.Parse(text)
		if err != nil {
			return
		}
		if _, ok := stmt.(*sql.Select); !ok {
			return
		}
		rsOn, _, errOn := dbOn.Exec(text)
		rsOff, _, errOff := dbOff.Exec(text)
		if (errOn == nil) != (errOff == nil) {
			t.Fatalf("%q: rules toggle changed errors: on=%v off=%v", text, errOn, errOff)
		}
		if errOn != nil {
			return
		}
		on, off := fmt.Sprint(rsOn.Rows), fmt.Sprint(rsOff.Rows)
		if on != off {
			t.Fatalf("%q: rules toggle changed results:\non:  %s\noff: %s", text, on, off)
		}
	})
}

// FuzzDMLLocate checks UPDATE and DELETE over a small table against the
// heapModel oracle, with the secondary index (g, a) absent and present.
// The input's first byte picks the statement; each following 3-byte
// group is one conjunct `col op value` over the integer columns, so the
// fuzzer explores point seeks, prefix ranges, empty and inverted ranges
// and residual predicates. Affected counts, final rows by RID and the
// RIDs two follow-up INSERTs receive must match the oracle.
func FuzzDMLLocate(f *testing.F) {
	for _, s := range [][]byte{
		{0, 0, 0, 7, 1, 0, 3},  // UPDATE ... WHERE k = 5 AND n = 2
		{1, 0, 4, 6, 0, 1, 14}, // DELETE ... WHERE k >= 4 AND k < 12
		{0, 2, 0, 4},           // UPDATE ... WHERE g = 3
		{1, 2, 0, 8, 3, 1, 60}, // DELETE ... WHERE g = 7 AND a < 1030
		{1, 3, 5, 40},          // DELETE ... WHERE a <> 1010
		{0},                    // UPDATE every row
		{1, 0, 4, 11, 0, 2, 5}, // DELETE ... WHERE k >= 9 AND k <= 3
	} {
		f.Add(s)
	}
	// Rows go in shuffled key order and a falls as the RID rises, so
	// both index orders differ from RID order; 1,024 rows make seeks
	// cheaper than the heap scan.
	const nrows = 1024
	cols := []string{"k", "n", "g", "a"}
	ops := []string{"=", "<", "<=", ">", ">=", "<>"}
	// Literal domains straddle each column's values by a little.
	lo := []int64{-2, -1, -1, 970}
	span := []int64{260, 6, 102, 1040}
	rng := rand.New(rand.NewSource(3))
	base := make([][]int64, nrows)
	for p, i := range rng.Perm(nrows) {
		base[p] = []int64{int64(i / 4), int64(i % 4), int64(i * 7 % 100), int64(2000 - p), 0}
	}
	f.Fuzz(func(t *testing.T, spec []byte) {
		if len(spec) == 0 || len(spec) > 13 {
			return
		}
		var conj []string
		var preds []func([]int64) bool
		for g := spec[1:]; len(g) >= 3; g = g[3:] {
			c, op := int(g[0])%len(cols), int(g[1])%len(ops)
			v := lo[c] + int64(g[2])%span[c]
			conj = append(conj, fmt.Sprintf("%s %s %d", cols[c], ops[op], v))
			preds = append(preds, func(r []int64) bool {
				x := r[c]
				switch ops[op] {
				case "=":
					return x == v
				case "<":
					return x < v
				case "<=":
					return x <= v
				case ">":
					return x > v
				case ">=":
					return x >= v
				}
				return x != v
			})
		}
		match := func(r []int64) bool {
			for _, p := range preds {
				if !p(r) {
					return false
				}
			}
			return true
		}
		where := ""
		if len(conj) > 0 {
			where = " WHERE " + strings.Join(conj, " AND ")
		}
		isDelete := spec[0]&1 == 1
		follow := [][]int64{{5000, 0, 1, 1, 1}, {5001, 0, 2, 2, 2}}
		for _, withIndex := range []bool{false, true} {
			m := &heapModel{}
			for _, r := range base {
				m.insert(append([]int64(nil), r...))
			}
			db := Open()
			db.MustExec("CREATE TABLE T (k INT, n INT, g INT, a INT, b INT, PRIMARY KEY (k, n))")
			db.MustExec(insertSQL("T", base))
			if withIndex {
				db.MustExec("CREATE INDEX ig ON T (g, a)")
			}
			if err := db.Analyze("T"); err != nil {
				t.Fatal(err)
			}
			var stmt string
			var want int
			if isDelete {
				stmt = "DELETE FROM T" + where
				want = m.delete(match)
			} else {
				stmt = "UPDATE T SET b = b + 1, a = a + 100" + where
				want = m.update(match, func(r []int64) []int64 {
					out := append([]int64(nil), r...)
					out[colB]++
					out[colA] += 100
					return out
				})
			}
			rs, _, err := db.Exec(stmt)
			if err != nil {
				t.Fatalf("%s (index=%v): %v", stmt, withIndex, err)
			}
			if rs.Affected != want {
				t.Fatalf("%s (index=%v): affected %d, oracle %d", stmt, withIndex, rs.Affected, want)
			}
			for _, r := range follow {
				m.insert(r)
			}
			db.MustExec(insertSQL("T", follow))
			if got, want := renderHeap(t, db, "T"), m.render(); got != want {
				t.Fatalf("%s (index=%v): state differs from oracle:\n got: %s\nwant: %s", stmt, withIndex, got, want)
			}
		}
	})
}
