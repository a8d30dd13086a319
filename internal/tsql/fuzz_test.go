package tsql_test

import (
	"strings"
	"testing"

	"tqp/internal/algebra"
	"tqp/internal/catalog"
	"tqp/internal/sqlgen"
	"tqp/internal/tsql"
)

// FuzzParse is the parser's robustness property: whatever the text, Parse
// and the build against the paper catalog return a statement or an error —
// a parser error carries the package prefix — and never panic; a statement
// that builds is a valid plan. The seeds are the statements of examples/ and
// the README, the SQL the generator ships to the DBMS for the paper plan
// (not this grammar: it seeds the error paths), and the shapes the tests of
// this package cover.
func FuzzParse(f *testing.F) {
	c := catalog.Paper()
	shipped, err := sqlgen.Generate(catalog.PaperInitialPlan(c).Children()[0])
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		PaperQueryText,
		shipped,
		"VALIDTIME SELECT Dept, COUNT(*) AS headcount FROM EMPLOYEE GROUP BY Dept ORDER BY Dept",
		"SELECT Dept, COUNT(*) AS spells, MIN(T1) AS first, MAX(T2) AS last FROM EMPLOYEE GROUP BY Dept ORDER BY Dept",
		"VALIDTIME SELECT EmpName, COUNT(*) AS assignments FROM PROJECT GROUP BY EmpName ORDER BY EmpName",
		"SELECT EmpName FROM EMPLOYEE FOR SYSTEM_TIME AS OF 7",
		"SELECT EmpName FROM EMPLOYEE FOR PERIOD (2, 9), PROJECT",
		"SELECT * FROM EMPLOYEE WHERE PERIOD(T1, T2) OVERLAPS PERIOD(2, 9) AND NOT Dept <> 'Sales'",
		"SELECT * FROM EMPLOYEE WHERE T1 >= 5 OR 2 = T1",
		"VALIDTIME SELECT EmpName FROM EMPLOYEE INTERSECT SELECT EmpName FROM PROJECT",
		"SELECT DISTINCT EmpName FROM EMPLOYEE UNION ALL SELECT EmpName FROM PROJECT ORDER BY EmpName DESC",
		"EXPLAIN ANALYZE SELECT T2 - T1 AS months, EmpName FROM EMPLOYEE WHERE T2 - T1 > 1.5",
		"SELECT 'unterminated FROM EMPLOYEE",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		q, err := tsql.Parse(text)
		if err != nil {
			if q != nil || !strings.HasPrefix(err.Error(), "tsql: ") {
				t.Fatalf("Parse(%q) = %v, %v: want a nil statement and a tsql error", text, q, err)
			}
			return
		}
		plan, err := q.Plan(c)
		if err != nil {
			return
		}
		if err := algebra.Validate(plan); err != nil {
			t.Fatalf("Parse(%q) built an invalid plan: %v", text, err)
		}
	})
}
