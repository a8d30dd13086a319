// Package datagen generates seeded synthetic relations for tests and
// benchmarks. The knobs are exactly the factors the paper's algebra is
// sensitive to: cardinality, duplicate ratio, snapshot-duplicate pressure
// (period overlap), adjacency (coalescability), and value skew.
package datagen

import (
	"fmt"
	"math/rand"

	"tqp/internal/algebra"
	"tqp/internal/catalog"
	"tqp/internal/column"
	"tqp/internal/period"
	"tqp/internal/relation"
	"tqp/internal/schema"
	"tqp/internal/value"
)

// TemporalSpec parameterizes a synthetic temporal relation over the schema
// (Name string, Grp int, T1, T2).
type TemporalSpec struct {
	// Rows is the tuple count.
	Rows int
	// Values is the number of distinct (Name, Grp) combinations to draw
	// from; smaller values create more value-equivalent tuples.
	Values int
	// TimeRange is the span of the time domain used.
	TimeRange int
	// MaxPeriod is the maximum period duration.
	MaxPeriod int
	// DupFrac is the probability that a tuple is an exact duplicate of an
	// earlier one.
	DupFrac float64
	// AdjFrac is the probability that a tuple's period is made adjacent to
	// the previous tuple of the same value combination (coalescable).
	AdjFrac float64
	// Seed drives the generator.
	Seed int64
}

// TemporalSchema returns the schema used by Temporal.
func TemporalSchema() *schema.Schema {
	return schema.MustNew(
		schema.Attr("Name", value.KindString),
		schema.Attr("Grp", value.KindInt),
		schema.Attr(schema.T1, value.KindTime),
		schema.Attr(schema.T2, value.KindTime),
	)
}

// Temporal generates a temporal relation per spec.
func Temporal(spec TemporalSpec) *relation.Relation {
	rng := rand.New(rand.NewSource(spec.Seed))
	if spec.Values <= 0 {
		spec.Values = 4
	}
	if spec.TimeRange <= 0 {
		spec.TimeRange = 40
	}
	if spec.MaxPeriod <= 0 {
		spec.MaxPeriod = 10
	}
	ts := make([]relation.Tuple, 0, spec.Rows)
	lastOfValue := make(map[int]period.Period)
	for i := 0; i < spec.Rows; i++ {
		if len(ts) > 0 && rng.Float64() < spec.DupFrac {
			ts = append(ts, ts[rng.Intn(len(ts))])
			continue
		}
		v := rng.Intn(spec.Values)
		var p period.Period
		if prev, ok := lastOfValue[v]; ok && rng.Float64() < spec.AdjFrac {
			end := prev.End + period.Chronon(1+rng.Intn(spec.MaxPeriod))
			p = period.New(prev.End, end)
		} else {
			start := period.Chronon(rng.Intn(spec.TimeRange))
			p = period.New(start, start+period.Chronon(1+rng.Intn(spec.MaxPeriod)))
		}
		lastOfValue[v] = p
		ts = append(ts, relation.NewTuple(
			value.String_(fmt.Sprintf("v%d", v%26)),
			value.Int(int64(v)),
			value.Time(p.Start),
			value.Time(p.End),
		))
	}
	return relation.FromTuplesTrusted(TemporalSchema(), ts)
}

// SnapshotSpec parameterizes a synthetic snapshot relation over the schema
// (Name string, Grp int).
type SnapshotSpec struct {
	Rows    int
	Values  int
	DupFrac float64
	Seed    int64
}

// SnapshotSchema returns the schema used by Snapshot.
func SnapshotSchema() *schema.Schema {
	return schema.MustNew(
		schema.Attr("Name", value.KindString),
		schema.Attr("Grp", value.KindInt),
	)
}

// Snapshot generates a conventional relation per spec.
func Snapshot(spec SnapshotSpec) *relation.Relation {
	rng := rand.New(rand.NewSource(spec.Seed))
	if spec.Values <= 0 {
		spec.Values = 4
	}
	ts := make([]relation.Tuple, 0, spec.Rows)
	for i := 0; i < spec.Rows; i++ {
		if len(ts) > 0 && rng.Float64() < spec.DupFrac {
			ts = append(ts, ts[rng.Intn(len(ts))])
			continue
		}
		v := rng.Intn(spec.Values)
		ts = append(ts, relation.NewTuple(
			value.String_(fmt.Sprintf("v%d", v%26)),
			value.Int(int64(v)),
		))
	}
	return relation.FromTuplesTrusted(SnapshotSchema(), ts)
}

// EmployeeSpec parameterizes a scaled version of the paper's EMPLOYEE /
// PROJECT database for benchmarks.
type EmployeeSpec struct {
	// Employees is the number of distinct employee names.
	Employees int
	// Depts is the department domain size.
	Depts int
	// Projects is the project domain size.
	Projects int
	// SpellsPerEmp is the number of department spells per employee.
	SpellsPerEmp int
	// AssignmentsPerEmp is the number of project assignments per employee.
	AssignmentsPerEmp int
	// TimeRange spans the chronon domain.
	TimeRange int
	// Seed drives the generator.
	Seed int64
}

// EmployeeDB builds a catalog with EMPLOYEE and PROJECT relations shaped
// like Figure 1 but scaled per spec.
func EmployeeDB(spec EmployeeSpec) *catalog.Catalog {
	rng := rand.New(rand.NewSource(spec.Seed))
	if spec.TimeRange <= 0 {
		spec.TimeRange = 100
	}
	if spec.Depts <= 0 {
		spec.Depts = 8
	}
	if spec.Projects <= 0 {
		spec.Projects = 16
	}
	emp := column.NewBatch(catalog.EmployeeSchema(), spec.Employees*spec.SpellsPerEmp)
	prj := column.NewBatch(catalog.ProjectSchema(), spec.Employees*spec.AssignmentsPerEmp)
	for e := 0; e < spec.Employees; e++ {
		name := fmt.Sprintf("emp%04d", e)
		for s := 0; s < spec.SpellsPerEmp; s++ {
			start := period.Chronon(rng.Intn(spec.TimeRange))
			length := period.Chronon(1 + rng.Intn(spec.TimeRange/4+1))
			appendRow(emp, value.String_(name),
				value.String_(fmt.Sprintf("dept%02d", rng.Intn(spec.Depts))),
				value.Time(start),
				value.Time(start+length))
		}
		for a := 0; a < spec.AssignmentsPerEmp; a++ {
			start := period.Chronon(rng.Intn(spec.TimeRange))
			length := period.Chronon(1 + rng.Intn(spec.TimeRange/8+1))
			appendRow(prj, value.String_(name),
				value.String_(fmt.Sprintf("prj%03d", rng.Intn(spec.Projects))),
				value.Time(start),
				value.Time(start+length))
		}
	}
	c := catalog.New()
	c.MustAdd("EMPLOYEE", relation.FromColumnar(catalog.EmployeeSchema(), emp), algebra.BaseInfo{})
	c.MustAdd("PROJECT", relation.FromColumnar(catalog.ProjectSchema(), prj), algebra.BaseInfo{})
	return c
}

// appendRow appends one row of values to b.
func appendRow(b *column.Batch, vs ...value.Value) {
	for c, v := range vs {
		b.Cols[c].Append(v)
	}
	b.N++
}
