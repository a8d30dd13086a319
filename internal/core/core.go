// Package core is the paper's primary contribution assembled into one
// component: a provably correct temporal query optimizer. It wires the
// three stages the paper assigns to the database implementor (Section 7) —
// formally specified operations (packages algebra/eval), transformation
// rules with proven equivalence types (package rules), and
// property-guarded plan enumeration (packages props/enum) — and extends
// them with the cost-based selection the paper lists as future work
// (package cost) and the layered stratum/DBMS execution (packages
// stratum/dbms).
package core

import (
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"time"

	"tqp/internal/algebra"
	"tqp/internal/catalog"
	"tqp/internal/cost"
	"tqp/internal/datagen"
	"tqp/internal/enum"
	"tqp/internal/equiv"
	"tqp/internal/eval"
	"tqp/internal/exec"
	"tqp/internal/obs"
	"tqp/internal/physical"
	"tqp/internal/props"
	"tqp/internal/relation"
	"tqp/internal/rules"
	"tqp/internal/stratum"
	"tqp/internal/tsql"
)

// Optimizer plans and executes queries over one catalog.
type Optimizer struct {
	cat    *catalog.Catalog
	model  *cost.Model
	config enum.Config
	seed   int64
	engine eval.EngineSpec
	params *cost.Params // set by WithCostParams; nil prices the engine's shape
}

// Option configures an Optimizer.
type Option func(*Optimizer)

// EngineSpec resolves a physical-engine name: "reference" is the executable
// specification of package eval, "exec" the streaming hash/merge engine of
// package exec, "parallel" its morsel-parallel variant at GOMAXPROCS
// workers. All produce identical result lists; they differ in speed and
// therefore in the cost shapes the optimizer assumes.
func EngineSpec(name string) (eval.EngineSpec, error) { return EngineFor(name, exec.Config{}) }

// CatalogFor resolves the CLIs' -db flag: "paper" is the paper's Figure 1
// database, "synth" the synthetic employee database at the given size.
func CatalogFor(db string, employees int) (*catalog.Catalog, error) {
	switch db {
	case "paper":
		return catalog.Paper(), nil
	case "synth":
		return datagen.EmployeeDB(datagen.EmployeeSpec{
			Employees: employees, SpellsPerEmp: 3, AssignmentsPerEmp: 4, Seed: 42,
		}), nil
	}
	return nil, fmt.Errorf("unknown database %q (want 'paper' or 'synth')", db)
}

// EngineFor resolves an engine name against an exec.Config (the CLIs' and
// sessions' -parallel/-mem/-spill knobs in one struct): "exec" and
// "parallel" honor every Config field — parallelism > 1 selects the
// morsel-parallel engine at that width, MemoryBudget > 0 bounds the
// blocking operators with grace-hash spilling, and "parallel" defaults a
// missing width to GOMAXPROCS. The reference evaluator is single-threaded
// and unbudgeted; it rejects both requests.
func EngineFor(name string, cfg exec.Config) (eval.EngineSpec, error) {
	if cfg.MemoryBudget < 0 {
		return eval.EngineSpec{}, fmt.Errorf("core: negative memory budget %d", cfg.MemoryBudget)
	}
	switch name {
	case "", "reference":
		if cfg.Parallelism > 1 {
			return eval.EngineSpec{}, fmt.Errorf("core: the reference evaluator is single-threaded; use -engine exec with -parallel %d", cfg.Parallelism)
		}
		if cfg.MemoryBudget > 0 {
			return eval.EngineSpec{}, fmt.Errorf("core: the reference evaluator does not spill; use -engine exec with -mem")
		}
		return eval.Reference(), nil
	case "exec":
		return exec.NewSpec(cfg), nil
	case "parallel":
		if cfg.Parallelism < 1 {
			cfg.Parallelism = runtime.GOMAXPROCS(0)
		}
		return exec.NewSpec(cfg), nil
	default:
		return eval.EngineSpec{}, fmt.Errorf("core: unknown engine %q (want \"reference\", \"exec\" or \"parallel\")", name)
	}
}

// ParseBytes parses a human-friendly byte count for the CLIs' -mem flags:
// a plain integer is bytes, and a K/M/G suffix (case-insensitive) scales by
// the binary unit. An optional trailing b/B is accepted, so the common
// two-letter spellings work too ("64K", "64KB", "16MB", "1GB"). The empty
// string is an explicit alias for 0: both mean unlimited (no memory budget
// is applied).
func ParseBytes(s string) (int64, error) {
	if s == "" {
		return 0, nil
	}
	orig := s
	if last := s[len(s)-1]; (last == 'b' || last == 'B') && len(s) > 1 {
		switch s[len(s)-2] {
		case 'k', 'K', 'm', 'M', 'g', 'G':
			s = s[:len(s)-1] // unit suffix: "64KB" → "64K"
		default:
			if s[len(s)-2] >= '0' && s[len(s)-2] <= '9' {
				s = s[:len(s)-1] // plain bytes: "512B" → "512"
			}
		}
	}
	mult := int64(1)
	switch s[len(s)-1] {
	case 'k', 'K':
		mult, s = 1<<10, s[:len(s)-1]
	case 'm', 'M':
		mult, s = 1<<20, s[:len(s)-1]
	case 'g', 'G':
		mult, s = 1<<30, s[:len(s)-1]
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("core: bad byte count %q (want e.g. 65536, 64K, 16MB)", orig)
	}
	if n > math.MaxInt64/mult {
		return 0, fmt.Errorf("core: byte count %q overflows", orig)
	}
	return n * mult, nil
}

// WithEngine selects the physical engine that executes stratum-assigned
// subplans; the cost model prices its shape (cost.ForEngine) unless
// WithCostParams sets one, in whichever order the two options come.
func WithEngine(spec eval.EngineSpec) Option {
	return func(o *Optimizer) { o.engine = spec }
}

// WithRules restricts the transformation-rule set.
func WithRules(rs []rules.Rule) Option {
	return func(o *Optimizer) { o.config.Rules = rs }
}

// WithMaxPlans caps enumeration.
func WithMaxPlans(n int) Option {
	return func(o *Optimizer) { o.config.MaxPlans = n }
}

// ShardedCostParams is the shape a coordinator planning over N shards
// prices: the engine spec's shapes (streaming, parallel, budgeted) plus
// the scale-out pricing — DBMS-site work divides across the shards, shipped
// tuples pay the wire-and-merge hop.
func ShardedCostParams(spec eval.EngineSpec, shards int) cost.Params {
	p := cost.ForEngine(spec)
	p.Shards = shards
	return p
}

// WithCostParams sets the shape the cost model prices in place of the
// engine's own (WithEngine), such as a coordinator's ShardedCostParams.
func WithCostParams(p cost.Params) Option {
	return func(o *Optimizer) { o.params = &p }
}

// WithDBMSSeed sets the simulated DBMS's order-nondeterminism seed.
func WithDBMSSeed(seed int64) Option {
	return func(o *Optimizer) { o.seed = seed }
}

// New returns an optimizer over the catalog. Its cost model is built once
// the options have run, so it prices the same shape in any option order.
func New(cat *catalog.Catalog, opts ...Option) *Optimizer {
	o := &Optimizer{
		cat:    cat,
		seed:   1,
		engine: eval.Reference(),
	}
	for _, opt := range opts {
		opt(o)
	}
	params := cost.ForEngine(o.engine)
	if o.params != nil {
		params = *o.params
	}
	o.model = cost.New(cat, params)
	return o
}

// Catalog returns the optimizer's catalog.
func (o *Optimizer) Catalog() *catalog.Catalog { return o.cat }

// Plans is the outcome of optimizing one query.
type Plans struct {
	// Query is the parsed statement (nil when optimizing a hand-built plan).
	Query *tsql.Query
	// Initial is the straightforward mapping of the query.
	Initial algebra.Node
	// All holds every enumerated plan, the initial plan first.
	All []algebra.Node
	// Best is the cheapest plan under the cost model.
	Best algebra.Node
	// BestCost and InitialCost are the model's estimates.
	BestCost    float64
	InitialCost float64
	// ResultType and OrderBy derive from Definition 5.1.
	ResultType equiv.ResultType
	OrderBy    relation.OrderSpec
	// Enumeration carries provenance and guard statistics.
	Enumeration *enum.Result
}

// Parse parses a statement against the catalog's dialect.
func (o *Optimizer) Parse(sql string) (*tsql.Query, error) { return tsql.Parse(sql) }

// OptimizeSQL parses, plans, enumerates and costs a statement.
func (o *Optimizer) OptimizeSQL(sql string) (*Plans, error) {
	q, err := tsql.Parse(sql)
	if err != nil {
		return nil, err
	}
	initial, err := q.Plan(o.cat)
	if err != nil {
		return nil, err
	}
	ps, err := o.Optimize(initial, q.ResultType(), q.OrderBy())
	if err != nil {
		return nil, err
	}
	ps.Query = q
	return ps, nil
}

// Optimize enumerates and costs plans for a hand-built initial plan.
func (o *Optimizer) Optimize(initial algebra.Node, rt equiv.ResultType, orderBy relation.OrderSpec) (*Plans, error) {
	cfg := o.config
	cfg.ResultType = rt
	res, err := enum.Enumerate(initial, cfg)
	if err != nil {
		return nil, err
	}
	if err := res.Score(o.model.Scorer()); err != nil {
		return nil, err
	}
	return cheapest(initial, rt, orderBy, res)
}

// OptimizeBeam is the heuristic alternative to Optimize for plans whose
// exhaustive closure would be too large: a cost-guided beam search
// (internal/enum.Beam) that typically reaches the same best plan while
// visiting a fraction of the space.
func (o *Optimizer) OptimizeBeam(initial algebra.Node, rt equiv.ResultType, orderBy relation.OrderSpec) (*Plans, error) {
	cfg := enum.BeamConfig{
		Config: o.config,
		Score:  o.model.Scorer(),
	}
	cfg.ResultType = rt
	res, err := enum.Beam(initial, cfg)
	if err != nil {
		return nil, err
	}
	return cheapest(initial, rt, orderBy, res)
}

// cheapest picks the best plan from the scores recorded beside res.Plans:
// the first plan whose score is strictly lower than every earlier one's.
func cheapest(initial algebra.Node, rt equiv.ResultType, orderBy relation.OrderSpec, res *enum.Result) (*Plans, error) {
	best, bestCost := -1, math.Inf(1)
	for i, c := range res.Scores {
		if c < bestCost {
			best, bestCost = i, c
		}
	}
	if best < 0 {
		return nil, fmt.Errorf("core: no plan has a finite cost")
	}
	return &Plans{
		Initial:     initial,
		All:         res.Plans,
		Best:        res.Plans[best],
		BestCost:    bestCost,
		InitialCost: res.Scores[0],
		ResultType:  rt,
		OrderBy:     orderBy,
		Enumeration: res,
	}, nil
}

// Prepared is a statement optimized down to one executable physical plan —
// the unit the serving layer caches. It carries everything needed to run
// the statement again without parsing or enumerating: the chosen plan
// (wrapped in its EnforceOrder sort, so the ORDER BY contract is physical),
// the result type, and the planning provenance the server reports with
// results. A Prepared is immutable after Prepare returns; plan trees are
// never mutated by execution (the stratum executor rebuilds each region
// over its bound transfer results as fresh nodes), so one Prepared may be
// executed from any number of goroutines concurrently.
type Prepared struct {
	// SQL is the statement text as planned.
	SQL string
	// Plan is the best plan under the cost model, order-enforced at the root.
	Plan algebra.Node
	// ResultType and OrderBy derive from Definition 5.1.
	ResultType equiv.ResultType
	OrderBy    relation.OrderSpec
	// PlanCount and BestCost record the enumeration outcome.
	PlanCount int
	BestCost  float64
	// Estimates holds the cost model's per-position predictions, as
	// cost.Model.Plan returns them: keyed by algebra path ("ε", "0",
	// "0.1"), each at the site its position executes at. Plan trees are
	// immutable, so paths are stable position IDs; EXPLAIN ANALYZE joins
	// execution actuals against this map, and the ROADMAP's
	// cardinality-feedback loop will consume the same pairs.
	Estimates map[string]cost.Estimate
	// Fingerprint identifies the physical plan: a truncated SHA-256 over
	// its canonical text. The structured query log records it, so a slow
	// query can be joined back to the exact plan that ran it.
	Fingerprint string
}

// Prepare parses, plans and costs a statement down to a single executable
// physical plan — the plan-cache hook: the server calls Prepare on a cache
// miss, stores the result keyed by (normalized SQL, catalog fingerprint,
// engine spec), and executes cached Prepareds directly on a hit, skipping
// the parse and the beam enumeration entirely. Enumeration uses the
// cost-guided beam search (OptimizeBeam), the production path for
// statements whose exhaustive closure would be large.
func (o *Optimizer) Prepare(sql string) (*Prepared, error) {
	q, err := tsql.Parse(sql)
	if err != nil {
		return nil, err
	}
	initial, err := q.Plan(o.cat)
	if err != nil {
		return nil, err
	}
	ps, err := o.OptimizeBeam(initial, q.ResultType(), q.OrderBy())
	if err != nil {
		return nil, err
	}
	plan := EnforceOrder(ps.Best, ps.OrderBy)
	if err := stratum.ValidateSites(plan); err != nil {
		return nil, err
	}
	estimates, err := o.model.Plan(plan)
	if err != nil {
		return nil, err
	}
	return &Prepared{
		SQL:         sql,
		Plan:        plan,
		ResultType:  ps.ResultType,
		OrderBy:     ps.OrderBy,
		PlanCount:   len(ps.All),
		BestCost:    ps.BestCost,
		Estimates:   estimates,
		Fingerprint: obs.Hash(algebra.Canonical(plan)),
	}, nil
}

// ExecutePlan runs a plan through the layered stratum/DBMS executor on an
// explicit physical engine spec, overriding the optimizer's own (see
// WithEngine). This is the per-query execution path of the serving layer:
// the admission controller derives a spec from each query's resource grant
// (worker share, memory share, spill directory) and executes the cached
// plan on it, while planning stays keyed to the session's engine settings.
// A fresh executor is built per call, so concurrent ExecutePlan calls on
// one Optimizer never share mutable state.
func (o *Optimizer) ExecutePlan(plan algebra.Node, spec eval.EngineSpec) (*relation.Relation, *stratum.Trace, error) {
	return stratum.NewWithEngine(o.cat, o.seed, spec).Execute(plan)
}

// Fingerprint returns the catalog's planning fingerprint (see
// catalog.Fingerprint) — one of the three components of a plan-cache key.
func (o *Optimizer) Fingerprint() string { return o.cat.Fingerprint() }

// Engine returns the optimizer's physical engine spec.
func (o *Optimizer) Engine() eval.EngineSpec { return o.engine }

// EnforceOrder wraps a plan in sort_{orderBy}, physically guaranteeing the
// ≡SQL order contract of Definition 5.1 at the root. The wrapper costs
// next to nothing where the optimizer did its job: the exec engine elides
// the sort whenever the plan already delivers an order orderBy is a prefix
// of (e.g. Figure 6(b), whose DBMS sort's order every operation above
// preserves), and the order-aware cost model prices exactly that. An empty
// orderBy returns the plan unchanged.
func EnforceOrder(plan algebra.Node, orderBy relation.OrderSpec) algebra.Node {
	if orderBy.Empty() {
		return plan
	}
	return algebra.NewSort(orderBy, plan)
}

// Execute runs a plan through the layered stratum/DBMS executor on the
// optimizer's physical engine (see WithEngine).
func (o *Optimizer) Execute(plan algebra.Node) (*relation.Relation, *stratum.Trace, error) {
	return stratum.NewWithEngine(o.cat, o.seed, o.engine).Execute(plan)
}

// Reference evaluates a plan with the reference evaluator (transfers are
// identities), for verification against the layered execution.
func (o *Optimizer) Reference(plan algebra.Node) (*relation.Relation, error) {
	return eval.New(o.cat).Eval(plan)
}

// Run is the end-to-end convenience: parse, optimize, execute the best
// plan, and verify it against the initial plan under ≡SQL (Definition 5.1).
func (o *Optimizer) Run(sql string) (*relation.Relation, *Plans, *stratum.Trace, error) {
	ps, err := o.OptimizeSQL(sql)
	if err != nil {
		return nil, nil, nil, err
	}
	got, trace, err := o.Execute(ps.Best)
	if err != nil {
		return nil, nil, nil, err
	}
	want, err := o.Reference(ps.Initial)
	if err != nil {
		return nil, nil, nil, err
	}
	ok, err := equiv.CheckSQL(ps.ResultType, ps.OrderBy, want, got)
	if err != nil {
		return nil, nil, nil, err
	}
	if !ok {
		return nil, nil, nil, fmt.Errorf(
			"core: best plan's layered execution is not ≡SQL to the reference result (plan %s)",
			algebra.Canonical(ps.Best))
	}
	return got, ps, trace, nil
}

// Explain renders a plan with its property vectors (Figure 6 style) and
// cost estimates.
func (o *Optimizer) Explain(plan algebra.Node, rt equiv.ResultType) (string, error) {
	st, err := props.InferStates(plan)
	if err != nil {
		return "", err
	}
	pm, err := props.Infer(plan, rt, st)
	if err != nil {
		return "", err
	}
	es, err := o.model.Plan(plan)
	if err != nil {
		return "", err
	}
	return algebra.Render(plan, func(n algebra.Node, p algebra.Path) string {
		e := es[p.String()]
		return fmt.Sprintf("%s  site=%s rows≈%.0f cost≈%.0f",
			pm[n].Vector(), st[n].Site, e.Rows, e.Cost)
	}), nil
}

// Analysis is the outcome of one EXPLAIN ANALYZE execution: the rendered
// annotated plan plus the artifacts callers verify with (the result
// relation — analyzed runs must be bit-identical to plain runs — and the
// probe holding raw per-node actuals for programmatic consumers).
type Analysis struct {
	Text   string
	Result *relation.Relation
	Trace  *stratum.Trace
	Probe  *obs.PlanProbe
	Wall   time.Duration
}

// ExplainAnalyze executes a prepared plan with per-node instrumentation on
// the given engine spec and renders the physical tree with estimated
// versus actual rows and the misestimate ratio per node. Actuals exist for
// every stratum operator and TS transfer (whose actual is the transferred
// row count, timed over the whole DBMS region below) — while nodes inside a
// DBMS region render estimates only: the simulated DBMS rewrites its
// subplan before running it, so per-node actuals below a TS do not exist
// in the layered architecture. A stratum region runs as one pipeline and
// the engine counts from inside it, so an operator's time= is the time
// spent in its own pulls (its inputs' subtracted), not the time to
// materialize it, and spilled= is its own spilling. Instrumentation only
// observes; the result is bit-identical to an unanalyzed ExecutePlan of the
// same plan and spec.
func (o *Optimizer) ExplainAnalyze(prep *Prepared, spec eval.EngineSpec) (*Analysis, error) {
	x := stratum.NewWithEngine(o.cat, o.seed, spec)
	probe := obs.NewPlanProbe()
	x.SetProbe(probe.Observe)
	start := time.Now()
	r, tr, err := x.Execute(prep.Plan)
	if err != nil {
		return nil, err
	}
	wall := time.Since(start)

	st, err := props.InferStates(prep.Plan)
	if err != nil {
		return nil, err
	}
	dec, err := physical.Annotate(prep.Plan, spec.Shape())
	if err != nil {
		return nil, err
	}
	tree := algebra.Render(prep.Plan, func(n algebra.Node, p algebra.Path) string {
		est, hasEst := prep.Estimates[p.String()]
		var b strings.Builder
		if d, ok := dec[n]; ok && d.Algo != "" {
			fmt.Fprintf(&b, "(%s)  ", d.Algo)
		}
		if hasEst {
			fmt.Fprintf(&b, "rows est≈%.0f", est.Rows)
		} else {
			b.WriteString("rows est=?")
		}
		ns := probe.Get(p.String())
		if ns == nil {
			// Inside the DBMS black box (or never evaluated): no actuals.
			if st[n].Site == props.DBMS {
				b.WriteString(" act=(dbms)")
			} else {
				b.WriteString(" act=?")
			}
			return b.String()
		}
		fmt.Fprintf(&b, " act=%d", ns.Rows)
		if hasEst {
			fmt.Fprintf(&b, " (%s)", misestimate(est.Rows, float64(ns.Rows)))
		}
		fmt.Fprintf(&b, "  time=%s", fmtWall(ns.Wall))
		if ns.Batches > 0 {
			fmt.Fprintf(&b, " batches=%d", ns.Batches)
		}
		if ns.SpilledOps > 0 {
			fmt.Fprintf(&b, " spilled=%dB/%dops", ns.SpilledBytes, ns.SpilledOps)
		}
		if ns.Evals > 1 {
			fmt.Fprintf(&b, " evals=%d", ns.Evals)
		}
		return b.String()
	})
	header := fmt.Sprintf(
		"EXPLAIN ANALYZE  engine=%s  wall=%s  rows=%d  transferred=%d  plan=%s",
		spec.Name, fmtWall(wall), r.Len(), tr.TuplesTransferred, prep.Fingerprint)
	return &Analysis{
		Text:   header + "\n" + tree,
		Result: r,
		Trace:  tr,
		Probe:  probe,
		Wall:   wall,
	}, nil
}

// misestimate renders the actual/estimated row ratio ("×1.00" is a perfect
// estimate; "×25.00" a 25-fold underestimate — the shape the cardinality-
// feedback loop hunts for).
func misestimate(est, act float64) string {
	if est <= 0 {
		if act == 0 {
			return "×1.00"
		}
		return "×∞"
	}
	return fmt.Sprintf("×%.2f", act/est)
}

// fmtWall renders a wall time compactly for plan annotations.
func fmtWall(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}
