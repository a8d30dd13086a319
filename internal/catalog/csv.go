package catalog

import (
	"fmt"
	"io"
	"strings"

	"tqp/internal/algebra"
	"tqp/internal/relation"
	"tqp/internal/schema"
	"tqp/internal/value"
)

// AddCSV loads a relation from CSV text whose header declares the schema as
// "name:domain" columns — e.g.
//
//	EmpName:string,Dept:string,T1:time,T2:time
//	John,Sales,1,8
//
// Domains are int, float, string, bool and time. A schema containing both
// T1:time and T2:time loads as a temporal relation. The Info flags are
// verified against the data like Add.
func (c *Catalog) AddCSV(name string, r io.Reader, info algebra.BaseInfo) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("catalog: reading csv for %q: %w", name, err)
	}
	lines := splitLines(string(data))
	if len(lines) == 0 {
		return fmt.Errorf("catalog: empty csv for %q", name)
	}
	sch, err := parseCSVHeader(lines[0])
	if err != nil {
		return fmt.Errorf("catalog: %q: %w", name, err)
	}
	rows := make([]relation.Tuple, 0, len(lines)-1)
	for ln, line := range lines[1:] {
		cells := strings.Split(line, ",")
		if len(cells) != sch.Len() {
			return fmt.Errorf("catalog: %q line %d: %d cells, schema %s", name, ln+2, len(cells), sch)
		}
		t := make(relation.Tuple, len(cells))
		for i, cell := range cells {
			v, err := value.Parse(sch.At(i).Kind, strings.TrimSpace(cell))
			if err != nil {
				return fmt.Errorf("catalog: %q line %d: %w", name, ln+2, err)
			}
			t[i] = v
		}
		rows = append(rows, t)
	}
	return c.Add(name, relation.FromTuplesTrusted(sch, rows), info)
}

func parseCSVHeader(header string) (*schema.Schema, error) {
	cols := strings.Split(header, ",")
	attrs := make([]schema.Attribute, 0, len(cols))
	for _, col := range cols {
		parts := strings.SplitN(strings.TrimSpace(col), ":", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("header column %q must be name:domain", col)
		}
		kind, err := value.ParseKind(strings.TrimSpace(parts[1]))
		if err != nil {
			return nil, err
		}
		attrs = append(attrs, schema.Attr(strings.TrimSpace(parts[0]), kind))
	}
	return schema.New(attrs...)
}

func splitLines(s string) []string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		line = strings.TrimRight(line, "\r")
		if strings.TrimSpace(line) == "" {
			continue
		}
		out = append(out, line)
	}
	return out
}

// WriteCSV renders a relation in the AddCSV format, making catalogs
// round-trippable. A cell AddCSV would read back differently — a string
// holding a comma or a newline, or with leading or trailing space, or an
// empty string as the only cell of a row, whose line AddCSV skips as blank —
// is an error naming its row and attribute, and nothing is written.
func WriteCSV(w io.Writer, r *relation.Relation) error {
	sch := r.Schema()
	var b strings.Builder
	for i := 0; i < sch.Len(); i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		a := sch.At(i)
		b.WriteString(a.Name + ":" + a.Kind.String())
	}
	b.WriteByte('\n')
	for row, t := range r.Tuples() {
		for i, v := range t {
			cell := v.String()
			if strings.ContainsAny(cell, ",\n") || strings.TrimSpace(cell) != cell || (len(t) == 1 && cell == "") {
				return fmt.Errorf("catalog: csv row %d attribute %s: %q does not read back", row, sch.At(i).Name, cell)
			}
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(cell)
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}
