package catalog_test

import (
	"strings"
	"testing"

	"tqp/internal/algebra"
	"tqp/internal/catalog"
	"tqp/internal/relation"
	"tqp/internal/schema"
	"tqp/internal/value"
)

const employeeCSV = `EmpName:string,Dept:string,T1:time,T2:time
John,Sales,1,8
John,Advertising,6,11
Anna,Sales,2,6
Anna,Advertising,2,6
Anna,Sales,6,12
`

func TestAddCSVRoundTrip(t *testing.T) {
	c := catalog.New()
	if err := c.AddCSV("EMP", strings.NewReader(employeeCSV), algebra.BaseInfo{Distinct: true}); err != nil {
		t.Fatal(err)
	}
	got, err := c.Resolve("EMP")
	if err != nil {
		t.Fatal(err)
	}
	want, _ := catalog.Paper().Resolve("EMPLOYEE")
	if !got.Schema().Equal(want.Schema()) {
		t.Fatalf("schema %s, want %s", got.Schema(), want.Schema())
	}
	if !got.EqualAsList(want) {
		t.Fatalf("csv load diverges:\n%s\nwant\n%s", got, want)
	}

	var sb strings.Builder
	if err := catalog.WriteCSV(&sb, got); err != nil {
		t.Fatal(err)
	}
	c2 := catalog.New()
	if err := c2.AddCSV("EMP2", strings.NewReader(sb.String()), algebra.BaseInfo{}); err != nil {
		t.Fatal(err)
	}
	back, _ := c2.Resolve("EMP2")
	if !back.EqualAsList(got) {
		t.Error("WriteCSV/AddCSV round trip diverges")
	}
}

func TestAddCSVErrors(t *testing.T) {
	cases := []struct {
		name string
		csv  string
	}{
		{"empty", ""},
		{"no domain", "EmpName\nJohn"},
		{"bad domain", "A:blob\n1"},
		{"arity", "A:int,B:int\n1"},
		{"bad cell", "A:int\nnotanumber"},
		{"half temporal", "A:int,T1:time\n1,2"},
	}
	for _, cse := range cases {
		c := catalog.New()
		if err := c.AddCSV("R", strings.NewReader(cse.csv), algebra.BaseInfo{}); err == nil {
			t.Errorf("%s: expected an error", cse.name)
		}
	}
}

func TestAddCSVValidatesInfo(t *testing.T) {
	c := catalog.New()
	dup := "A:int\n1\n1\n"
	if err := c.AddCSV("R", strings.NewReader(dup), algebra.BaseInfo{Distinct: true}); err == nil {
		t.Error("Distinct over duplicated CSV data must fail")
	}
}

// TestWriteCSVRejectsUnreadableCells: WriteCSV refuses any cell AddCSV
// would read back differently, naming its row and attribute, and writes a
// cell that does read back (an inner space) unchanged.
func TestWriteCSVRejectsUnreadableCells(t *testing.T) {
	two := schema.MustNew(schema.Attr("K", value.KindInt), schema.Attr("S", value.KindString))
	one := schema.MustNew(schema.Attr("S", value.KindString))
	for _, c := range []struct {
		name string
		rel  *relation.Relation
		want string // "" = must round-trip
	}{
		{"comma", relation.MustFromRows(two, [][]any{{1, "ok"}, {2, "a,b"}}), "row 1 attribute S"},
		{"newline", relation.MustFromRows(two, [][]any{{1, "a\nb"}}), "row 0 attribute S"},
		{"edge spaces", relation.MustFromRows(two, [][]any{{1, "ok"}, {2, "ok"}, {3, " padded "}}), "row 2 attribute S"},
		{"empty one-column", relation.MustFromRows(one, [][]any{{"x"}, {""}}), "row 1 attribute S"},
		{"inner space", relation.MustFromRows(two, [][]any{{1, "a b"}, {2, ""}}), ""},
	} {
		var sb strings.Builder
		err := catalog.WriteCSV(&sb, c.rel)
		if c.want != "" {
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s: WriteCSV error %v, want one naming %q", c.name, err, c.want)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		back := catalog.New()
		if err := back.AddCSV("R", strings.NewReader(sb.String()), algebra.BaseInfo{}); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got, _ := back.Resolve("R"); !got.EqualAsList(c.rel) {
			t.Errorf("%s: read back\n%s\nwant\n%s", c.name, got, c.rel)
		}
	}
}
