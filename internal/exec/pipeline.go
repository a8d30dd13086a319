package exec

import (
	"tqp/internal/column"
	"tqp/internal/relation"
	"tqp/internal/schema"
)

// vecBatchRows is the row capacity the columnar operators target per batch:
// large enough to amortize per-batch bookkeeping, small enough that a
// pipeline's working batches stay cache-resident. Scans are the exception —
// a base relation converts once and travels as a single batch, so its
// columns are never re-sliced or copied.
const vecBatchRows = 1024

// vecIterator is the one pull interface of the engine. nextBatch returns
// (nil, nil) when the stream is exhausted; emitted batches are
// immutable and may be views sharing column storage with earlier batches.
type vecIterator interface {
	nextBatch() (*column.Batch, error)
	close() error
}

// vecSource wraps a batch iterator as a pipeline stage.
func vecSource(v vecIterator, sch *schema.Schema) *source {
	return &source{vec: v, schema: sch}
}

// vecDrainOne drains a columnar stream into a single compacted batch (the
// build/materialization points: hash-join build sides, value-group and
// grouping inputs). A stream of exactly one unselected batch is returned
// as-is, copy-free.
func vecDrainOne(v vecIterator, sch *schema.Schema) (*column.Batch, error) {
	b, err := vecDrainOneView(v, sch)
	if err != nil {
		return nil, err
	}
	return b.Compact(), nil
}

// vecDrainOneView drains v into a single batch like vecDrainOne but keeps
// a lone selected batch as its selection view instead of compacting it —
// for consumers that split or scan presented rows and never index the
// physical planes directly.
func vecDrainOneView(v vecIterator, sch *schema.Schema) (*column.Batch, error) {
	var parts []*column.Batch
	total := 0
	for {
		b, err := v.nextBatch()
		if err != nil {
			v.close()
			return nil, err
		}
		if b == nil {
			break
		}
		parts = append(parts, b)
		total += b.Rows()
	}
	if err := v.close(); err != nil {
		return nil, err
	}
	return column.Concat(sch, parts, total), nil
}

// drainVec drains the root stage into the result: a relation over one batch
// (a lone batch as it is, selection included), whose tuples exist only if a
// reader asks for them.
func drainVec(s *source) (*relation.Relation, error) {
	b, err := vecDrainOneView(s.vec, s.schema)
	if err != nil {
		return nil, err
	}
	if b.Schema != s.schema {
		// The lone batch may be an input's (a ⊔ operand's, a transfer's):
		// relabel it so a later scan of the result reads the result's schema.
		nb := *b
		nb.Schema = s.schema
		b = &nb
	}
	out := relation.FromColumnar(s.schema, b)
	out.SetOrder(s.state.Order)
	return out, nil
}
