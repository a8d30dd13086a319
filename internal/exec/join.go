package exec

import (
	"tqp/internal/algebra"
	"tqp/internal/eval"
	"tqp/internal/expr"
	"tqp/internal/period"
	"tqp/internal/physical"
	"tqp/internal/relation"
	"tqp/internal/schema"
	"tqp/internal/spill"
	"tqp/internal/value"
)

// productIter evaluates the keyless × and ×ᵀ (optionally with a fused
// residual predicate) in the reference's left-major, right-list order: a
// block nested loop over the materialized right side that reuses a scratch
// tuple, allocating only for emitted pairs. Keyed products compile to the
// batch hash and merge joins (vecops.go, vecmerge.go).
type productIter struct {
	left     iterator
	right    *source
	out      *schema.Schema
	lw, rw   int
	residual expr.Pred
	temporal bool
	lt1, lt2 int // left period positions (temporal)

	built   bool
	rows    []relation.Tuple
	periods []period.Period

	cur  relation.Tuple
	curP period.Period
	ci   int
	buf  relation.Tuple
}

func (p *productIter) build() error {
	r, err := drain(p.right)
	if err != nil {
		return err
	}
	p.rows = r.Tuples()
	if p.temporal {
		p.periods = r.Periods()
	}
	p.built = true
	return nil
}

// advance pulls the next left tuple and rewinds the right-side cursor.
func (p *productIter) advance() error {
	t, err := p.left.next()
	if err != nil {
		return err
	}
	p.cur = t
	if t != nil && p.temporal {
		p.curP = t.PeriodAt(p.lt1, p.lt2)
	}
	p.ci = 0
	return nil
}

func (p *productIter) next() (relation.Tuple, error) {
	if !p.built {
		if err := p.build(); err != nil {
			return nil, err
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	width := p.lw + p.rw
	if p.temporal {
		width += 2
	}
	for p.cur != nil {
		for p.ci < len(p.rows) {
			ri := p.ci
			p.ci++
			var iv period.Period
			if p.temporal {
				iv = p.curP.Intersect(p.periods[ri])
				if iv.Empty() {
					continue
				}
			}
			if p.buf == nil {
				p.buf = make(relation.Tuple, width)
			}
			copy(p.buf, p.cur)
			copy(p.buf[p.lw:], p.rows[ri])
			if p.temporal {
				p.buf[p.lw+p.rw] = value.Time(iv.Start)
				p.buf[p.lw+p.rw+1] = value.Time(iv.End)
			}
			if p.residual != nil {
				ok, err := p.residual.Holds(p.out, p.buf)
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
			}
			t := p.buf
			p.buf = nil
			return t, nil
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	return nil, nil
}

func (p *productIter) close() error { return p.left.close() }

// pairJoiner carries the physical parameters of one × / ×ᵀ compilation —
// schemas, key columns, residual predicate, time positions — shared by the
// parallel keyless product (parallel.go), the spilled nested loop and the
// budgeted hybrid join (grace.go).
type pairJoiner struct {
	out        *schema.Schema
	lw, rw     int
	lidx, ridx []int
	residual   expr.Pred
	temporal   bool
	lt1, lt2   int
	rt1, rt2   int
	width      int
}

func newPairJoiner(l, r *source, out *schema.Schema, lidx, ridx []int, residual expr.Pred, temporal bool) *pairJoiner {
	j := &pairJoiner{
		out: out, lw: l.schema.Len(), rw: r.schema.Len(),
		lidx: lidx, ridx: ridx, residual: residual, temporal: temporal,
	}
	j.width = j.lw + j.rw
	if temporal {
		j.width += 2
		j.lt1, j.lt2 = l.schema.TimeIndices()
		j.rt1, j.rt2 = r.schema.TimeIndices()
	}
	return j
}

// periodsOf precomputes the build side's periods (nil when conventional).
func (j *pairJoiner) periodsOf(rows []relation.Tuple) []period.Period {
	if !j.temporal {
		return nil
	}
	ps := make([]period.Period, len(rows))
	for i, t := range rows {
		ps[i] = t.PeriodAt(j.rt1, j.rt2)
	}
	return ps
}

// pairOne emits the (probe, build) pair into a fresh tuple, or nil when the
// temporal intersection is empty or the residual rejects it.
func (j *pairJoiner) pairOne(lt relation.Tuple, curP period.Period, bt relation.Tuple, bp period.Period) (relation.Tuple, error) {
	var iv period.Period
	if j.temporal {
		iv = curP.Intersect(bp)
		if iv.Empty() {
			return nil, nil
		}
	}
	nt := make(relation.Tuple, j.width)
	copy(nt, lt)
	copy(nt[j.lw:], bt)
	if j.temporal {
		nt[j.lw+j.rw] = value.Time(iv.Start)
		nt[j.lw+j.rw+1] = value.Time(iv.End)
	}
	if j.residual != nil {
		ok, err := j.residual.Holds(j.out, nt)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, nil
		}
	}
	return nt, nil
}

// joinChunk joins a chunk of probe tuples (origBase is the first one's global
// position) against the whole build side, appending tagged pairs in probe
// order; rps carries the precomputed build periods.
func (j *pairJoiner) joinChunk(probe []relation.Tuple, origBase int, brows []relation.Tuple, rps []period.Period) ([]tagged, error) {
	var res []tagged
	for pi, lt := range probe {
		var curP period.Period
		if j.temporal {
			curP = lt.PeriodAt(j.lt1, j.lt2)
		}
		for bi, bt := range brows {
			var bp period.Period
			if j.temporal {
				bp = rps[bi]
			}
			nt, err := j.pairOne(lt, curP, bt, bp)
			if err != nil {
				return nil, err
			}
			if nt != nil {
				res = append(res, tagged{seq: origBase + pi, t: nt})
			}
		}
	}
	return res, nil
}

// joinIter instantiates the batch hash join kernel for these parameters.
func (j *pairJoiner) joinIter(left vecIterator, right *source) *vecJoinIter {
	return &vecJoinIter{
		left: left, right: right, out: j.out, lw: j.lw, rw: j.rw,
		lidx: j.lidx, ridx: j.ridx, residual: j.residual,
		temporal: j.temporal, lt1: j.lt1, lt2: j.lt2,
	}
}

// joinPart is the spilled keyed join's partition body: the batch hash join
// kernel builds on the bucket's right rows and probes its left rows in
// sequence order, every output batch carrying its probe rows' sequence keys
// to the gather.
func (j *pairJoiner) joinPart(lp, rp part) ([]emitted, error) {
	if len(lp.rows) == 0 || len(rp.rows) == 0 {
		return nil, nil
	}
	probe := selView(lp.b, lp.rows)
	v := j.joinIter(&rangeBatchIter{b: probe, hi: probe.rows()}, batchSource(selView(rp.b, rp.rows), rp.b.schema))
	v.trackProbes = true
	var out []emitted
	for {
		b, err := v.nextBatch()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return out, nil
		}
		seqs := make([]int, b.n)
		for x, i := range v.probes {
			seqs[x] = lp.seq(i)
		}
		out = append(out, emitted{part: part{b: b, rows: identityIdx(b.n), seqs: seqs}})
	}
}

// spillLoopIter is the memory-bounded keyless product: the build side, too
// big for its share, lives in one spill file and is re-scanned per probe
// tuple — the tuple-at-a-time nested loop with the inner relation on disk.
// There is no key to grace-partition on, so this is the bounded fallback;
// its output order is trivially the reference's left-major sequence. One
// reader stays open across the whole probe side, rewound per probe tuple,
// so the repeated scans reuse the file handle and buffer.
type spillLoopIter struct {
	left iterator
	j    *pairJoiner

	file *spill.File
	r    *spill.Reader

	cur  relation.Tuple
	curP period.Period
}

func (s *spillLoopIter) next() (relation.Tuple, error) {
	for {
		if s.cur == nil {
			t, err := s.left.next()
			if err != nil {
				return nil, err
			}
			if t == nil {
				return nil, nil
			}
			s.cur = t
			if s.j.temporal {
				s.curP = t.PeriodAt(s.j.lt1, s.j.lt2)
			}
			if s.r == nil {
				r, err := s.file.Open()
				if err != nil {
					return nil, err
				}
				s.r = r
			} else if err := s.r.Rewind(); err != nil {
				return nil, err
			}
		}
		for {
			_, bt, ok, err := s.r.Next()
			if err != nil {
				return nil, err
			}
			if !ok {
				s.cur = nil
				break
			}
			var bp period.Period
			if s.j.temporal {
				bp = bt.PeriodAt(s.j.rt1, s.j.rt2)
			}
			nt, err := s.j.pairOne(s.cur, s.curP, bt, bp)
			if err != nil {
				return nil, err
			}
			if nt != nil {
				return nt, nil
			}
		}
	}
}

func (s *spillLoopIter) close() error {
	if s.r != nil {
		s.r.Close()
		s.r = nil
	}
	return s.left.close()
}

// graceProductSource compiles the keyless × / ×ᵀ in memory-bounded mode:
// the build side drains against the share; if it fits, the ordinary block
// nested loop runs, otherwise the build side spills to one file and the
// probe side streams against it.
func (e *Engine) graceProductSource(l, r *source, j *pairJoiner, order relation.OrderSpec) *source {
	return lazySource(j.out, order, func() ([]relation.Tuple, error) {
		side, err := e.drainGraceVec(r, nil, e.opShare())
		if err != nil {
			l.it.close()
			return nil, err
		}
		// The resident build side is this operator's working set; its
		// accounting returns to the arbiter when the loop finishes.
		defer e.releaseResident(side)
		var it iterator
		if !side.spilled {
			it = &productIter{
				left: l.it, right: batchSource(side.b, r.schema),
				out: j.out, lw: j.lw, rw: j.rw, residual: j.residual,
				temporal: j.temporal, lt1: j.lt1, lt2: j.lt2,
			}
		} else {
			// With no keys every drained row landed in the single bucket of
			// the empty-key hash, in list order — exactly the one file the
			// nested loop needs.
			var f *spill.File
			for _, ps := range side.parts {
				if ps.file != nil {
					f = ps.file
					break
				}
			}
			e.graceNoteSpill()
			it = &spillLoopIter{left: l.it, j: j, file: f}
		}
		var out []relation.Tuple
		for {
			t, err := it.next()
			if err != nil {
				it.close()
				return nil, err
			}
			if t == nil {
				break
			}
			out = append(out, t)
		}
		if err := it.close(); err != nil {
			return nil, err
		}
		return out, nil
	})
}

// buildProduct compiles × / ×ᵀ with an optional fused join predicate; the
// join idioms dispatch here with their predicate. With equality keys and
// both inputs delivered in a key-covering order the merge join is chosen;
// with keys alone, the hash join; otherwise the block nested loop. In
// memory-bounded mode the keyed variant is the hybrid hash join of grace.go
// (both sides grace-hash partition only when the build side overflows) and
// the keyless product spills its build side.
func (e *Engine) buildProduct(n algebra.Node, pred expr.Pred, temporal bool) (*source, error) {
	l, r, err := e.buildBoth(n)
	if err != nil {
		return nil, err
	}
	outSchema, err := n.Schema()
	if err != nil {
		return nil, err
	}
	lw, rw := l.schema.Len(), r.schema.Len()
	lidx, ridx, residual := physical.EquiKeys(pred, outSchema, lw, rw)
	leftOrder := l.order
	outOrder := leftOrder
	if temporal {
		// Table 1: the order of ×ᵀ is the left order's time-free prefix.
		outOrder = leftOrder.TimeFreePrefix()
	}
	src := &source{
		schema: outSchema,
		order:  eval.OrderAfterProduct(outOrder, r.schema, outSchema),
	}
	keyed := len(lidx) > 0
	if e.budgeted() {
		j := newPairJoiner(l, r, outSchema, lidx, ridx, residual, temporal)
		if keyed {
			return e.graceJoinSource(l, r, j, src.order), nil
		}
		return e.graceProductSource(l, r, j, src.order), nil
	}
	if e.parallel() {
		if keyed {
			return e.vecParallelJoinSource(l, r, outSchema, lidx, ridx, residual, temporal, src.order), nil
		}
		src.it = e.parallelProductIter(l, r, outSchema, residual, temporal)
		return src, nil
	}
	var lt1, lt2 int
	if temporal {
		lt1, lt2 = l.schema.TimeIndices()
	}
	if !keyed {
		src.it = &productIter{
			left: l.it, right: r, out: outSchema, lw: lw, rw: rw,
			residual: residual, temporal: temporal, lt1: lt1, lt2: lt2,
		}
		return src, nil
	}
	e.stats.VectorOps++
	if !e.opts.NoMerge {
		if keys, ok := physical.MergeJoinKeys(leftOrder, r.order, l.schema, r.schema, lidx, ridx); ok {
			e.stats.MergeJoins++
			return vecSource(&vecMergeJoinIter{
				e: e, left: l.vecInput(), right: r, out: outSchema, lw: lw, rw: rw,
				cmp: compileVecJoinCmp(l.schema, r.schema, keys), residual: residual,
				temporal: temporal, lt1: lt1, lt2: lt2,
			}, outSchema, src.order), nil
		}
	}
	return vecSource(&vecJoinIter{
		e: e, left: l.vecInput(), right: r, out: outSchema, lw: lw, rw: rw,
		lidx: lidx, ridx: ridx, residual: residual, temporal: temporal, lt1: lt1, lt2: lt2,
	}, outSchema, src.order), nil
}
