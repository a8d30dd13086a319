package coord

import (
	"context"

	"tqp/internal/relation"
)

// QueryAnswers runs a planned statement the way Query does — the same
// scatter, gather and remainder — and also returns every shard answer the
// gather read, so a test can inspect what crossed the wire.
func (c *Coordinator) QueryAnswers(ctx context.Context, sql string) (*relation.Relation, []*relation.Relation, error) {
	ent, _, err := c.prepare(sql)
	if err != nil {
		return nil, nil, err
	}
	outs, err := c.scatter(ctx, ent)
	if err != nil {
		return nil, nil, err
	}
	result, err := c.finish(ent, outs)
	var answers []*relation.Relation
	for _, o := range outs {
		answers = append(answers, o.rels...)
	}
	return result, answers, err
}
