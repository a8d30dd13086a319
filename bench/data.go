package main

import (
	"fmt"
	"math/rand"
	"sort"

	"tqp/internal/relation"
	"tqp/internal/server"
)

// paperSQL is the paper's running example: which employees worked in a
// department but on no project, and when.
const paperSQL = "VALIDTIME SELECT DISTINCT COALESCED EmpName FROM EMPLOYEE " +
	"EXCEPT SELECT EmpName FROM PROJECT ORDER BY EmpName ASC"

// scanSQL returns every EMPLOYEE row; it does next to no operator work.
const scanSQL = "SELECT * FROM EMPLOYEE"

// coldStatements returns n variants of the paper statement whose
// normalized texts (the plan cache's key) are pairwise distinct. The
// literals filter with OVERLAPS and string equality only: comparing a time
// column with an integer literal is a known trap (see README.md).
func coldStatements(seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for len(out) < n {
		a := rng.Intn(80)
		b := a + 5 + rng.Intn(25)
		sql := fmt.Sprintf("VALIDTIME SELECT DISTINCT COALESCED EmpName FROM EMPLOYEE "+
			"WHERE PERIOD(T1, T2) OVERLAPS PERIOD(%d, %d) "+
			"EXCEPT SELECT EmpName FROM PROJECT WHERE Prj = 'prj%03d' ORDER BY EmpName ASC",
			a, b, rng.Intn(16))
		if key := server.NormalizeSQL(sql); !seen[key] {
			seen[key] = true
			out = append(out, sql)
		}
	}
	return out
}

// eraSpan is the width of one era of the store workloads: era e holds
// periods inside [e*eraSpan, (e+1)*eraSpan), so the segments' chronon
// fences are disjoint and a FOR PERIOD over one era prunes all the others.
const eraSpan = 1000

// empRow is one generated EMPLOYEE row, kept in plain Go beside the
// relation so expected answers can be computed without any engine code.
type empRow struct {
	name, dept string
	t1, t2     int
}

// eraRows generates one era's rows. About a third of the rows start where
// the same employee's previous row ended, so coalescing has periods to
// merge, and a tenth repeat the previous row, so DISTINCT has duplicates.
func eraRows(seed int64, era, n int) []empRow {
	rng := rand.New(rand.NewSource(seed*1000 + int64(era)))
	base := era * eraSpan
	last := map[string]empRow{}
	rows := make([]empRow, 0, n)
	for len(rows) < n {
		name := fmt.Sprintf("emp%04d", rng.Intn(n/4+1))
		r := empRow{name: name, dept: fmt.Sprintf("dept%02d", rng.Intn(8))}
		prev, seenBefore := last[name]
		switch p := rng.Intn(10); {
		case seenBefore && p == 0:
			r = prev
		case seenBefore && p < 4 && prev.t2+12 < base+eraSpan:
			r.t1 = prev.t2
			r.t2 = r.t1 + 1 + rng.Intn(10)
		default:
			r.t1 = base + rng.Intn(eraSpan-20)
			r.t2 = r.t1 + 1 + rng.Intn(10)
		}
		last[name] = r
		rows = append(rows, r)
	}
	return rows
}

// literals renders rows in the [][]any form the catalog ingests.
func literals(rows []empRow) [][]any {
	out := make([][]any, len(rows))
	for i, r := range rows {
		out[i] = []any{r.name, r.dept, r.t1, r.t2}
	}
	return out
}

// overlapping is the plain Go filter behind the store workloads' expected
// answers: the rows whose period overlaps [a, b).
func overlapping(rows []empRow, a, b int) []empRow {
	var out []empRow
	for _, r := range rows {
		if r.t1 < b && r.t2 > a {
			out = append(out, r)
		}
	}
	return out
}

// coalescedCount is how many rows DISTINCT COALESCED EmpName must return
// over rows: per employee, the number of maximal periods in the union of
// that employee's periods.
func coalescedCount(rows []empRow) int {
	byName := map[string][]empRow{}
	for _, r := range rows {
		byName[r.name] = append(byName[r.name], r)
	}
	n := 0
	for _, rs := range byName {
		sort.Slice(rs, func(i, j int) bool { return rs[i].t1 < rs[j].t1 })
		end := rs[0].t1 - 1
		for _, r := range rs {
			if r.t1 > end {
				n++
			}
			end = max(end, r.t2)
		}
	}
	return n
}

// userBytes is the size of the rows' own data: string bytes plus eight
// bytes per chronon.
func userBytes(rows []empRow) int {
	n := 0
	for _, r := range rows {
		n += len(r.name) + len(r.dept) + 16
	}
	return n
}

// sameMultiset reports whether two lists hold the same rows the same
// number of times, comparing rendered values only. The simulated DBMS
// returns unordered results in a seeded permutation, so a scan is compared
// with the generated rows as a multiset; list order is pinned separately,
// against the reference evaluator.
func sameMultiset(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	counts := make(map[string]int, len(a))
	for _, k := range a {
		counts[k]++
	}
	for _, k := range b {
		if counts[k]--; counts[k] < 0 {
			return false
		}
	}
	return true
}

func relationKeys(r *relation.Relation) []string {
	keys := make([]string, r.Len())
	for i, t := range r.Tuples() {
		keys[i] = t.String()
	}
	return keys
}

func rowKeys(rows []empRow) []string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = fmt.Sprintf("(%s, %s, %d, %d)", r.name, r.dept, r.t1, r.t2)
	}
	return keys
}
