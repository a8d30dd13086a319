package exec

import (
	"tqp/internal/column"
	"tqp/internal/eval"
	"tqp/internal/expr"
	"tqp/internal/period"
	"tqp/internal/relation"
	"tqp/internal/schema"
	"tqp/internal/value"
)

// This file holds the batch-at-a-time hash operators: σ, π, the pipelined
// rdup and 𝒢, the hash join, and the partition bodies the exchange
// driver (grace.go) runs for rdup, \, ∪, rdupᵀ, coalᵀ, 𝒢 and 𝒢ᵀ. Each is the
// engine's only implementation of its algorithm and reproduces the
// reference's list exactly — first-occurrence group order,
// left-major/right-list join order, group-local temporal transforms
// re-interleaved by original position.

// onceBatchIter defers a batch-producing computation to the first pull and
// emits its result as a single batch.
type onceBatchIter struct {
	compute func() (*column.Batch, error)
	done    bool
}

func (o *onceBatchIter) nextBatch() (*column.Batch, error) {
	if o.done {
		return nil, nil
	}
	o.done = true
	b, err := o.compute()
	if err != nil {
		return nil, err
	}
	if b == nil || b.Rows() == 0 {
		return nil, nil
	}
	return b, nil
}

func (o *onceBatchIter) close() error { return nil }

// vecPred is a predicate compiled against columnar input: evaluated on the
// physical row i of b without materializing a tuple.
type vecPred func(b *column.Batch, i int) (bool, error)

// compileVecPred builds a columnar evaluator for p over s, or nil when p
// contains a shape the compiler does not specialize (arithmetic, period
// predicates); the caller then falls back to scratch-tuple evaluation.
// Comparisons reconstruct values straight off the columns and reuse
// value.Compare, so the result is the one Pred.Holds computes.
func compileVecPred(p expr.Pred, s *schema.Schema) vecPred {
	switch q := p.(type) {
	case expr.TruePred:
		return func(*column.Batch, int) (bool, error) { return true, nil }
	case expr.Not:
		inner := compileVecPred(q.P, s)
		if inner == nil {
			return nil
		}
		return func(b *column.Batch, i int) (bool, error) {
			ok, err := inner(b, i)
			return !ok, err
		}
	case expr.And:
		l, r := compileVecPred(q.L, s), compileVecPred(q.R, s)
		if l == nil || r == nil {
			return nil
		}
		return func(b *column.Batch, i int) (bool, error) {
			ok, err := l(b, i)
			if err != nil || !ok {
				return false, err
			}
			return r(b, i)
		}
	case expr.Or:
		l, r := compileVecPred(q.L, s), compileVecPred(q.R, s)
		if l == nil || r == nil {
			return nil
		}
		return func(b *column.Batch, i int) (bool, error) {
			ok, err := l(b, i)
			if err != nil || ok {
				return ok, err
			}
			return r(b, i)
		}
	case expr.Cmp:
		if fast := compileTypedCmp(q, s); fast != nil {
			return fast
		}
		lv := compileVecExpr(q.L, s)
		rv := compileVecExpr(q.R, s)
		if lv == nil || rv == nil {
			return nil
		}
		op := q.Op
		return func(b *column.Batch, i int) (bool, error) {
			cr := lv(b, i).Compare(rv(b, i))
			return cmpHolds(op, cr), nil
		}
	}
	return nil
}

// cmpHolds applies a comparison operator to a three-way Compare result.
func cmpHolds(op expr.CmpOp, cr int) bool {
	switch op {
	case expr.Eq:
		return cr == 0
	case expr.Ne:
		return cr != 0
	case expr.Lt:
		return cr < 0
	case expr.Le:
		return cr <= 0
	case expr.Gt:
		return cr > 0
	default:
		return cr >= 0
	}
}

// intCmp returns op as a direct int64 comparison — exact for same-kind
// int, bool and time values, whose canonical Compare is the payload order.
func intCmp(op expr.CmpOp) func(a, b int64) bool {
	switch op {
	case expr.Eq:
		return func(a, b int64) bool { return a == b }
	case expr.Ne:
		return func(a, b int64) bool { return a != b }
	case expr.Lt:
		return func(a, b int64) bool { return a < b }
	case expr.Le:
		return func(a, b int64) bool { return a <= b }
	case expr.Gt:
		return func(a, b int64) bool { return a > b }
	default:
		return func(a, b int64) bool { return a >= b }
	}
}

// strCmp is intCmp's string-plane counterpart.
func strCmp(op expr.CmpOp) func(a, b string) bool {
	switch op {
	case expr.Eq:
		return func(a, b string) bool { return a == b }
	case expr.Ne:
		return func(a, b string) bool { return a != b }
	case expr.Lt:
		return func(a, b string) bool { return a < b }
	case expr.Le:
		return func(a, b string) bool { return a <= b }
	case expr.Gt:
		return func(a, b string) bool { return a > b }
	default:
		return func(a, b string) bool { return a >= b }
	}
}

// compileTypedCmp specializes Col-vs-Lit and Col-vs-Col comparisons to read
// the typed column planes directly — no value.Value construction, no
// generic Compare — whenever the runtime storage kind matches the schema
// kind the closure was compiled for. Only exact-payload kinds specialize:
// int, bool and time compare as their int64 payloads and strings as
// strings, exactly value.Compare's same-kind order. Floats (NaN, cross-kind
// numeric equality) and demoted columns take the generic path, which every
// closure falls back to per row when the plane check fails.
func compileTypedCmp(q expr.Cmp, s *schema.Schema) vecPred {
	generic := func(op expr.CmpOp) func(a, b value.Value) bool {
		return func(a, b value.Value) bool { return cmpHolds(op, a.Compare(b)) }
	}
	intPlane := func(k value.Kind) bool {
		return k == value.KindInt || k == value.KindBool || k == value.KindTime
	}
	lcol, lok := q.L.(expr.Col)
	if !lok {
		return nil
	}
	li := s.Index(lcol.Name)
	if li < 0 {
		return nil
	}
	lk := s.At(li).Kind
	switch r := q.R.(type) {
	case expr.Lit:
		lit := r.Val
		if intPlane(lk) && lk == lit.Kind() {
			var k int64
			switch lk {
			case value.KindInt:
				k = lit.AsInt()
			case value.KindBool:
				if lit.AsBool() {
					k = 1
				}
			default:
				k = int64(lit.AsTime())
			}
			cmp, slow := intCmp(q.Op), generic(q.Op)
			return func(b *column.Batch, i int) (bool, error) {
				if c := &b.Cols[li]; c.Kind == lk {
					return cmp(c.Ints[i], k), nil
				}
				return slow(b.Cols[li].At(i), lit), nil
			}
		}
		if lk == value.KindString && lit.Kind() == value.KindString {
			k := lit.AsString()
			cmp, slow := strCmp(q.Op), generic(q.Op)
			return func(b *column.Batch, i int) (bool, error) {
				if c := &b.Cols[li]; c.Kind == value.KindString {
					return cmp(c.Strs[i], k), nil
				}
				return slow(b.Cols[li].At(i), lit), nil
			}
		}
	case expr.Col:
		ri := s.Index(r.Name)
		if ri < 0 {
			return nil
		}
		rk := s.At(ri).Kind
		if intPlane(lk) && lk == rk {
			cmp, slow := intCmp(q.Op), generic(q.Op)
			return func(b *column.Batch, i int) (bool, error) {
				lc, rc := &b.Cols[li], &b.Cols[ri]
				if lc.Kind == lk && rc.Kind == lk {
					return cmp(lc.Ints[i], rc.Ints[i]), nil
				}
				return slow(lc.At(i), rc.At(i)), nil
			}
		}
		if lk == value.KindString && rk == value.KindString {
			cmp, slow := strCmp(q.Op), generic(q.Op)
			return func(b *column.Batch, i int) (bool, error) {
				lc, rc := &b.Cols[li], &b.Cols[ri]
				if lc.Kind == value.KindString && rc.Kind == value.KindString {
					return cmp(lc.Strs[i], rc.Strs[i]), nil
				}
				return slow(lc.At(i), rc.At(i)), nil
			}
		}
	}
	return nil
}

// compileVecExpr specializes a scalar expression to a column read or a
// constant; nil for any other shape.
func compileVecExpr(e expr.Expr, s *schema.Schema) func(b *column.Batch, i int) value.Value {
	switch x := e.(type) {
	case expr.Col:
		ci := s.Index(x.Name)
		if ci < 0 {
			return nil
		}
		return func(b *column.Batch, i int) value.Value { return b.Cols[ci].At(i) }
	case expr.Lit:
		v := x.Val
		return func(*column.Batch, int) value.Value { return v }
	}
	return nil
}

// vecFilterIter is the columnar σ_P: per input batch it evaluates the
// predicate over the presented rows and emits a selection-vector view — no
// row is copied, a fully-passing batch passes through as-is.
type vecFilterIter struct {
	in      vecIterator
	p       expr.Pred
	schema  *schema.Schema
	fast    vecPred
	scratch relation.Tuple
}

func (f *vecFilterIter) holds(b *column.Batch, i int) (bool, error) {
	if f.fast != nil {
		return f.fast(b, i)
	}
	if f.scratch == nil {
		f.scratch = make(relation.Tuple, f.schema.Len())
	}
	b.FillRow(f.scratch, i)
	return f.p.Holds(f.schema, f.scratch)
}

func (f *vecFilterIter) nextBatch() (*column.Batch, error) {
	for {
		b, err := f.in.nextBatch()
		if err != nil || b == nil {
			return nil, err
		}
		// Preallocate the selection at the only bound that is always right
		// (every row passes): one allocation per input batch instead of a
		// growslice doubling chain — on a full scan batch the copies and
		// the GC churn they cause would dominate the filter itself. The
		// slice cannot be reused across batches: the emitted view owns it,
		// and downstream group operators retain batches.
		n := b.Rows()
		sel := make([]int, 0, n)
		pass := 0
		for k := 0; k < n; k++ {
			i := b.RowIndex(k)
			ok, err := f.holds(b, i)
			if err != nil {
				return nil, err
			}
			if ok {
				pass++
				sel = append(sel, i)
			}
		}
		if pass == 0 {
			continue
		}
		if pass == n {
			return b, nil
		}
		return b.WithSel(sel), nil
	}
}

func (f *vecFilterIter) close() error { return f.in.close() }

// vecProjectIter is the columnar π. A projection whose items are all bare
// column references is a zero-copy column gather — the output batch shares
// the input's storage and selection; anything else evaluates row-at-a-time
// into a fresh batch through a reused scratch tuple.
type vecProjectIter struct {
	in        vecIterator
	items     []projVecItem
	gather    bool // every item is a plain column reference
	inSchema  *schema.Schema
	outSchema *schema.Schema
	scratch   relation.Tuple
}

// projVecItem is one compiled projection item: a source column index when
// the item is a bare reference, else the expression to evaluate.
type projVecItem struct {
	col  int
	eval expr.Expr
}

func compileProjItems(items []projVecItem, in *schema.Schema) bool {
	gather := true
	for i := range items {
		items[i].col = -1
		if c, ok := items[i].eval.(expr.Col); ok {
			if ci := in.Index(c.Name); ci >= 0 {
				items[i].col = ci
				continue
			}
		}
		gather = false
	}
	return gather
}

func (p *vecProjectIter) nextBatch() (*column.Batch, error) {
	b, err := p.in.nextBatch()
	if err != nil || b == nil {
		return nil, err
	}
	if p.gather {
		out := &column.Batch{Schema: p.outSchema, Cols: make([]column.Vec, len(p.items)), N: b.N, Sel: b.Sel}
		for k, it := range p.items {
			out.Cols[k] = b.Cols[it.col]
		}
		return out, nil
	}
	n := b.Rows()
	out := column.NewBatch(p.outSchema, n)
	if p.scratch == nil {
		p.scratch = make(relation.Tuple, p.inSchema.Len())
	}
	for k := 0; k < n; k++ {
		i := b.RowIndex(k)
		for c, it := range p.items {
			if it.col >= 0 {
				out.Cols[c].AppendFrom(&b.Cols[it.col], i)
				continue
			}
			b.FillRow(p.scratch, i)
			v, err := it.eval.Eval(p.inSchema, p.scratch)
			if err != nil {
				return nil, err
			}
			out.Cols[c].Append(v)
		}
	}
	out.N = n
	return out, nil
}

func (p *vecProjectIter) close() error { return p.in.close() }

// vecRdupIter is the columnar rdup: a streaming group table over the
// columns, emitting each batch's first-occurrence rows as a selection view.
// The table holds (batch, row) references, so surviving rows are never
// copied.
type vecRdupIter struct {
	in   vecIterator
	seen *groupTable
	rows []int
	ids  []int32
}

func (r *vecRdupIter) nextBatch() (*column.Batch, error) {
	for {
		b, err := r.in.nextBatch()
		if err != nil || b == nil {
			return nil, err
		}
		if r.seen == nil {
			r.seen = &groupTable{idx: identityIdx(len(b.Cols))}
		}
		rows := presented(b, &r.rows)
		r.ids = resize(r.ids, len(rows))
		fresh := int32(r.seen.size()) // the id the next new key gets
		r.seen.add(b, rows, r.ids)
		var sel []int
		for k, id := range r.ids {
			if id == fresh {
				sel = append(sel, rows[k])
				fresh++
			}
		}
		if len(sel) == 0 {
			continue
		}
		if b.Sel == nil && len(sel) == b.N {
			return b, nil
		}
		return b.WithSel(sel), nil
	}
}

func (r *vecRdupIter) close() error { return r.in.close() }

// vecJoinIter is the hash × / ×ᵀ: the build side drains into one batch plus
// a columnar hash table on the equality keys — with none, the keyless
// product, the whole build side is the one group of the empty key — then
// probe batches stream through, each probe row pairing with its key group
// in right-list order. Output rows are assembled column-wise — no per-pair
// tuple allocation — and the emission order is the reference's left-major
// sequence.
type vecJoinIter struct {
	left     vecIterator
	right    *source
	out      *schema.Schema
	lw, rw   int
	lidx     []int
	ridx     []int
	residual expr.Pred
	temporal bool
	lt1, lt2 int

	built   bool // the shared build state below is ready
	started bool // this iterator's probe cursor has taken its first step
	build   *column.Batch
	periods []period.Period
	table   *groupTable // read-only once built: probe copies share it
	members csrGroups   // by group: its build rows, in list order

	pb       *column.Batch // current probe batch
	pk       int           // next presented row in pb
	gids     []int32       // by presented row of pb: its build group, or -1
	prows    []int         // pb's presented rows, when it has no selection
	hs       []uint64      // the probe's hash scratch
	curProbe int           // physical index of the probe row the cursor is on
	ci       int           // next candidate within cand
	cand     []int32
	curP     period.Period
	live     bool // a probe row with candidates is parked on the cursor
	scratch  relation.Tuple

	// trackProbes makes nextBatch record, in probes, the physical probe row
	// behind each row of the batch it returns — the spilled join's link from
	// output rows back to their probe sequence keys.
	trackProbes bool
	probes      []int
}

func (j *vecJoinIter) buildSide() error {
	b, err := vecDrainOne(j.right.vec, j.right.schema)
	if err != nil {
		return err
	}
	j.build = b
	if j.temporal {
		rt1, rt2 := j.right.schema.TimeIndices()
		j.periods = make([]period.Period, b.N)
		for i := 0; i < b.N; i++ {
			j.periods[i] = b.PeriodAt(rt1, rt2, i)
		}
	}
	j.table = &groupTable{idx: j.ridx}
	ids := make([]int32, b.N)
	j.table.add(b, identityIdx(b.N), ids)
	j.members.fill(ids, j.table.size())
	j.built = true
	return nil
}

// advance positions the candidate cursor on the next probe row with a key
// match, pulling probe batches as needed; false when the left is exhausted.
func (j *vecJoinIter) advance() (bool, error) {
	for {
		if j.pb == nil || j.pk >= j.pb.Rows() {
			b, err := j.left.nextBatch()
			if err != nil {
				return false, err
			}
			if b == nil {
				return false, nil
			}
			j.pb, j.pk = b, 0
			rows := presented(b, &j.prows)
			j.gids, j.hs = resize(j.gids, len(rows)), resize(j.hs, len(rows))
			j.table.lookup(b, rows, j.lidx, j.hs, j.gids)
			continue
		}
		i, gid := j.pb.RowIndex(j.pk), j.gids[j.pk]
		j.pk++
		if gid >= 0 {
			j.cand = j.members.members(int(gid))
			j.ci = 0
			if j.temporal {
				j.curP = j.pb.PeriodAt(j.lt1, j.lt2, i)
			}
			// Park the probe row index in cand's cursor state: emit pairs
			// against it until the candidate list is spent.
			j.curProbe = i
			return true, nil
		}
	}
}

func (j *vecJoinIter) nextBatch() (*column.Batch, error) {
	if !j.built {
		if err := j.buildSide(); err != nil {
			return nil, err
		}
	}
	// The probe cursor starts separately from the build: the parallel join
	// hands each worker a copy with the build state already shared (built
	// but not started), and every copy advances its own probe range.
	if !j.started {
		j.started = true
		ok, err := j.advance()
		if err != nil {
			return nil, err
		}
		j.live = ok
	}
	if !j.live {
		return nil, nil
	}
	out := column.NewBatch(j.out, vecBatchRows)
	j.probes = j.probes[:0]
	for j.live {
		for j.ci < len(j.cand) {
			ri := int(j.cand[j.ci])
			j.ci++
			var iv period.Period
			if j.temporal {
				iv = j.curP.Intersect(j.periods[ri])
				if iv.Empty() {
					continue
				}
			}
			if j.residual != nil {
				ok, err := j.residualHolds(ri, iv)
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
			}
			for c := 0; c < j.lw; c++ {
				out.Cols[c].AppendFrom(&j.pb.Cols[c], j.curProbe)
			}
			for c := 0; c < j.rw; c++ {
				out.Cols[j.lw+c].AppendFrom(&j.build.Cols[c], ri)
			}
			if j.temporal {
				out.Cols[j.lw+j.rw].Append(value.Time(iv.Start))
				out.Cols[j.lw+j.rw+1].Append(value.Time(iv.End))
			}
			out.N++
			if j.trackProbes {
				j.probes = append(j.probes, j.curProbe)
			}
		}
		if out.N >= vecBatchRows {
			break
		}
		ok, err := j.advance()
		if err != nil {
			return nil, err
		}
		j.live = ok
	}
	if out.N == 0 {
		return nil, nil
	}
	return out, nil
}

// residualHolds evaluates the fused residual predicate on the would-be
// output row, assembled into a reused scratch tuple.
func (j *vecJoinIter) residualHolds(ri int, iv period.Period) (bool, error) {
	if j.scratch == nil {
		width := j.lw + j.rw
		if j.temporal {
			width += 2
		}
		j.scratch = make(relation.Tuple, width)
	}
	for c := 0; c < j.lw; c++ {
		j.scratch[c] = j.pb.Cols[c].At(j.curProbe)
	}
	for c := 0; c < j.rw; c++ {
		j.scratch[j.lw+c] = j.build.Cols[c].At(ri)
	}
	if j.temporal {
		j.scratch[j.lw+j.rw] = value.Time(iv.Start)
		j.scratch[j.lw+j.rw+1] = value.Time(iv.End)
	}
	return j.residual.Holds(j.out, j.scratch)
}

func (j *vecJoinIter) close() error { return j.left.close() }

// rdupBody is the partition body of rdup: the first occurrence of each row
// survives, found with the group table.
func rdupBody(idx []int) partBody {
	return func(p, _ part) ([]emitted, error) {
		sc := getScratch()
		defer sc.release()
		sc.groups.reset(idx)
		ids := sc.ids(len(p.rows))
		sc.groups.add(p.b, p.rows, ids)
		sel := make([]int, 0, sc.groups.size())
		fresh := int32(0) // the id the next first occurrence has
		for k, id := range ids {
			if id == fresh {
				sel = append(sel, p.rows[k])
				fresh++
			}
		}
		return []emitted{{part: part{b: p.b, rows: sel, seqs: p.seqs}}}, nil
	}
}

// cancelMultiplicity is the core of \ and ∪: fund rows build per-key
// multiplicity budgets, scan rows stream against them with budget hits
// cancelling, and the surviving scan rows are returned in order.
func cancelMultiplicity(fund, scan part, idx []int) []int {
	sc := getScratch()
	defer sc.release()
	g := &sc.groups
	g.reset(idx)
	ids := sc.ids(max(len(fund.rows), len(scan.rows)))
	g.add(fund.b, fund.rows, ids[:len(fund.rows)])
	budget := resize(sc.budget, g.size())
	clear(budget)
	for _, id := range ids[:len(fund.rows)] {
		budget[id]++
	}
	sc.budget = budget
	ids = ids[:len(scan.rows)]
	g.hv = resize(g.hv, len(scan.rows))
	g.lookup(scan.b, scan.rows, idx, g.hv, ids)
	sel := make([]int, 0, len(scan.rows))
	for k, id := range ids {
		if id >= 0 && budget[id] > 0 {
			budget[id]--
			continue
		}
		sel = append(sel, scan.rows[k])
	}
	return sel
}

// diffBody is the partition body of \: the right rows fund the budgets, the
// earliest left occurrences absorb the subtraction, left survivors keep
// their list order.
func diffBody(idx []int) partBody {
	return func(lp, rp part) ([]emitted, error) {
		return []emitted{{part: part{b: lp.b, rows: cancelMultiplicity(rp, lp, idx), seqs: lp.seqs}}}, nil
	}
}

// unionBody is the partition body of the max-multiplicity ∪: the left rows
// pass through whole, the right rows exceeding the left multiplicities
// follow behind the whole left list.
func unionBody(idx []int) partBody {
	return func(lp, rp part) ([]emitted, error) {
		return []emitted{
			{part: lp},
			{part: part{b: rp.b, rows: cancelMultiplicity(lp, rp, idx), seqs: rp.seqs}, off: afterLeft},
		}, nil
	}
}

// groupEmit writes one group's result rows onto ob's planes: members are the
// group's positions in p.rows, in list order, and sc is the body's scratch.
type groupEmit func(p part, members []int32, sc *scratch, ob *column.Batch) error

// appendGroupRow writes the leading columns of one 𝒢 / 𝒢ᵀ result row — the
// grouping columns, read off row i of b, then the accumulators' results —
// and counts the row; 𝒢ᵀ appends the row's period itself.
func appendGroupRow(ob, b *column.Batch, i int, gidx []int, accs []*expr.Accumulator) {
	for c, gi := range gidx {
		ob.Cols[c].AppendFrom(&b.Cols[gi], i)
	}
	for x, acc := range accs {
		ob.Cols[len(gidx)+x].Append(acc.Result())
	}
	ob.N++
}

// groupEmitBody is the partition body of the grouping operators whose
// output is computed per group (𝒢, 𝒢ᵀ): partition the rows by the grouping
// columns, let the per-group emitter write each group's result rows onto the
// output planes, and tag them with the group's first-occurrence position.
func groupEmitBody(gidx []int, contiguous bool, out *schema.Schema, emit groupEmit) partBody {
	return func(p, _ part) ([]emitted, error) {
		if len(p.rows) == 0 {
			return nil, nil
		}
		sc := getScratch()
		defer sc.release()
		sc.row = resize(sc.row, len(p.b.Cols))
		ob := column.NewBatch(out, 0)
		groups := sc.groupRows(p, gidx, contiguous)
		var seqs []int
		for g := range groups.count() {
			members := groups.members(g)
			if err := emit(p, members, sc, ob); err != nil {
				return nil, err
			}
			for len(seqs) < ob.N {
				seqs = append(seqs, p.seq(p.rows[members[0]]))
			}
		}
		return []emitted{{part: part{b: ob, rows: identityIdx(ob.N), seqs: seqs}}}, nil
	}
}

// vecAggregateSource compiles the pipelined hash 𝒢: batches stream into
// per-group accumulators keyed off the columns, and once the input is
// exhausted one row per group — grouping keys read back from the group
// representatives' column positions — emits in first-occurrence order.
func (e *Engine) vecAggregateSource(in *source, gidx []int, outSchema *schema.Schema, aggs []expr.Aggregate) *source {
	return vecSource(&onceBatchIter{compute: func() (*column.Batch, error) {
		groups := &groupTable{idx: gidx}
		var accs [][]*expr.Accumulator
		var rowBuf []int
		var ids []int32
		scratch := make(relation.Tuple, in.schema.Len())
		fold := func() error {
			for {
				b, err := in.vec.nextBatch()
				if err != nil || b == nil {
					return err
				}
				rows := presented(b, &rowBuf)
				ids = resize(ids, len(rows))
				groups.add(b, rows, ids)
				for k, gid := range ids {
					if int(gid) == len(accs) {
						accs = append(accs, eval.NewAccumulators(aggs, in.schema))
					}
					b.FillRow(scratch, rows[k])
					if err := eval.FoldAggregates(accs[gid], aggs, in.schema, scratch); err != nil {
						return err
					}
				}
			}
		}
		if err := fold(); err != nil {
			in.vec.close()
			return nil, err
		}
		if err := in.vec.close(); err != nil {
			return nil, err
		}
		ob := column.NewBatch(outSchema, groups.size())
		for gid := range accs {
			rb, ri := groups.repOf(gid)
			appendGroupRow(ob, rb, ri, gidx, accs[gid])
		}
		return ob, nil
	}}, outSchema)
}
