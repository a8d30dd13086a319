package exec

import "tqp/internal/relation"

// groupIter runs a grouping operator group-at-a-time over an input whose
// delivered order keeps groups contiguous: tuples are pulled until the
// grouping columns change, the group is transformed as a unit, and its
// output tuples stream out before the next group is read. Because groups
// are contiguous and the transforms preserve within-group list order, the
// concatenated group outputs equal the materializing hash variant's
// re-interleaved result exactly.
type groupIter struct {
	in      iterator
	idx     []int // grouping columns (equality defines a group boundary)
	emit    func(group []relation.Tuple) ([]relation.Tuple, error)
	pending relation.Tuple // first tuple of the next group, already pulled
	out     []relation.Tuple
	oi      int
	done    bool
}

func (g *groupIter) next() (relation.Tuple, error) {
	for {
		if g.oi < len(g.out) {
			t := g.out[g.oi]
			g.oi++
			return t, nil
		}
		if g.done {
			return nil, nil
		}
		first := g.pending
		g.pending = nil
		if first == nil {
			t, err := g.in.next()
			if err != nil {
				return nil, err
			}
			if t == nil {
				g.done = true
				return nil, nil
			}
			first = t
		}
		group := []relation.Tuple{first}
		for {
			t, err := g.in.next()
			if err != nil {
				return nil, err
			}
			if t == nil {
				g.done = true
				break
			}
			if !t.EqualOn(g.idx, first) {
				g.pending = t
				break
			}
			group = append(group, t)
		}
		out, err := g.emit(group)
		if err != nil {
			return nil, err
		}
		g.out, g.oi = out, 0
	}
}

func (g *groupIter) close() error { return g.in.close() }
