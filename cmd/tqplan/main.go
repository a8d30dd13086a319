// Command tqplan explains and optimizes temporal SQL statements over the
// paper's example database (or a scaled synthetic one): it prints the
// initial algebra expression with its property vectors (Figure 6 style),
// enumerates equivalent plans with the Figure 5 algorithm, picks the
// cheapest under the cost model, shows the physical plan with its
// merge/hash/elided operator choices (exec engine), the SQL shipped to the
// DBMS, and optionally executes the plan.
//
// Usage:
//
//	tqplan [-db paper|synth] [-employees N] [-engine reference|exec|parallel] [-parallel N] [-mem BYTES] [-sorted] [-enumerate] [-execute] [-q query]
//
// The default query is the paper's running example. -engine selects the
// physical engine for stratum-assigned subplans: the reference evaluator
// (the executable specification), the streaming hash/merge exec engine, or
// its morsel-parallel variant (-parallel sets the worker count); -mem
// bounds the exec engine's blocking-operator working sets, spilling
// grace-hash partitions to temp files past the budget ("64K", "16M", plain
// bytes); all produce identical results. -sorted pre-sorts every base relation on
// its value attributes and declares the order in the catalog, feeding the
// order-aware planner. With -engine exec the chosen plan is wrapped in an
// order-enforcing sort (the ≡SQL contract made physical), annotated with
// the per-node physical decision, and costed against the order-blind model
// — on the paper query the enforcer elides because the optimizer pushes the
// sort into the DBMS and every operation above preserves its order.
package main

import (
	"flag"
	"fmt"
	"os"

	"tqp"
	"tqp/internal/algebra"
	"tqp/internal/core"
	"tqp/internal/cost"
	"tqp/internal/experiments"
	"tqp/internal/physical"
	"tqp/internal/relation"
)

func main() {
	db := flag.String("db", "paper", "database: 'paper' (Figure 1) or 'synth'")
	employees := flag.Int("employees", 100, "synthetic database size (with -db synth)")
	query := flag.String("q", experiments.PaperQuerySQL, "temporal SQL statement")
	engine := flag.String("engine", "reference", "physical engine for stratum subplans: 'reference', 'exec' or 'parallel'")
	parallel := flag.Int("parallel", 0, "worker count for the morsel-parallel engine (with -engine exec|parallel)")
	mem := flag.String("mem", "", "memory budget for the exec engine's blocking operators, e.g. 64K, 16MB, 1GB (0 or empty = unlimited)")
	sorted := flag.Bool("sorted", false, "pre-sort base relations on their value attributes and declare the order")
	enumerate := flag.Bool("enumerate", false, "list every enumerated plan")
	execute := flag.Bool("execute", true, "execute the chosen plan and print the result")
	analyze := flag.Bool("analyze", false, "run EXPLAIN ANALYZE: execute and render per-node estimated vs actual cardinalities")
	flag.Parse()

	budget, err := core.ParseBytes(*mem)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tqplan: -mem: %v\n", err)
		os.Exit(2)
	}
	spec, err := tqp.ResolveEngineFor(*engine, tqp.EngineConfig{Parallelism: *parallel, MemoryBudget: budget})
	if err != nil {
		fmt.Fprintf(os.Stderr, "tqplan: %v\n", err)
		os.Exit(2)
	}

	cat, err := core.CatalogFor(*db, *employees)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tqplan: %v\n", err)
		os.Exit(2)
	}
	if *sorted {
		if cat, err = sortedCatalog(cat); err != nil {
			fmt.Fprintf(os.Stderr, "tqplan: -sorted: %v\n", err)
			os.Exit(2)
		}
	}

	opt := tqp.NewOptimizer(cat, tqp.WithEngine(spec))

	if *analyze {
		// EXPLAIN ANALYZE mode: prepare, execute, and render the chosen
		// plan with per-node estimated vs actual cardinalities.
		prep, err := opt.Prepare(*query)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tqplan: %v\n", err)
			os.Exit(1)
		}
		an, err := opt.ExplainAnalyze(prep, spec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tqplan: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(an.Text)
		if *execute {
			fmt.Printf("\nresult (%d tuples):\n%s", an.Result.Len(), an.Result)
		}
		return
	}

	plans, err := opt.OptimizeSQL(*query)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tqplan: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("query (%s result):\n  %s\n\n", plans.ResultType, *query)
	explainInitial, err := opt.Explain(plans.Initial, plans.ResultType)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tqplan: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("initial plan (cost %.0f), properties [OrderRequired DuplicatesRelevant PeriodPreserving]:\n%s\n",
		plans.InitialCost, explainInitial)

	if *enumerate {
		fmt.Printf("%d equivalent plans:\n", len(plans.All))
		for i, p := range plans.All {
			fmt.Printf("%4d  %s\n", i, algebra.Canonical(p))
		}
		fmt.Println()
	} else {
		fmt.Printf("enumerated %d equivalent plans\n\n", len(plans.All))
	}

	explainBest, err := opt.Explain(plans.Best, plans.ResultType)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tqplan: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("chosen plan (cost %.0f, %.1fx cheaper):\n%s\n",
		plans.BestCost, plans.InitialCost/plans.BestCost, explainBest)

	if deriv := plans.Enumeration.Derivation(plans.Best); len(deriv) > 0 {
		fmt.Print("derivation: initial")
		for _, s := range deriv {
			fmt.Printf(" →[%s]", s.Rule)
		}
		fmt.Println()
	}

	// With the exec engine the executed plan carries an explicit order
	// enforcer for the query's ORDER BY: it compiles away when the chosen
	// plan already delivers the order, and the physical annotation shows
	// it. The reference evaluator cannot elide, so it runs the chosen plan
	// as-is (its ≡SQL order guarantee is verified by the optimizer tests).
	final := plans.Best
	if spec.Streaming {
		final = core.EnforceOrder(plans.Best, plans.OrderBy)
		dec, err := physical.Annotate(final)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tqplan: annotate: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\nphysical plan (engine %s, order enforcer at the root):\n%s",
			spec.Name, algebra.Render(final, func(n algebra.Node, _ algebra.Path) string {
				return string(dec[n].Algo)
			}))
		sum := physical.Summarize(dec)
		awareParams := cost.ParamsFor(true)
		awareParams.Parallelism = spec.Parallelism
		awareParams.MemoryBudget = spec.MemoryBudget
		awareCost, err1 := cost.New(cat, awareParams).Cost(final)
		blindParams := cost.ParamsFor(true)
		blindParams.OrderBlind = true
		blindParams.Parallelism = spec.Parallelism
		blindParams.MemoryBudget = spec.MemoryBudget
		blindCost, err2 := cost.New(cat, blindParams).Cost(final)
		if err1 != nil || err2 != nil {
			fmt.Fprintf(os.Stderr, "tqplan: cost: %v %v\n", err1, err2)
			os.Exit(1)
		}
		fmt.Printf("physical summary: %d sort(s) elided, %d merge operator(s); order-aware cost %.0f vs order-blind %.0f (%.2fx)\n",
			sum.SortsElided, sum.MergeOps, awareCost, blindCost, blindCost/awareCost)
	}

	if !*execute {
		return
	}
	result, trace, err := opt.Execute(final)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tqplan: execute: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("\nSQL shipped to the DBMS:")
	for _, sql := range trace.SQL {
		fmt.Printf("  ---\n%s\n", indent(sql))
	}
	fmt.Printf("\nengine %s: transferred %d tuples; simulated units: stratum=%.0f dbms=%.0f transfer=%.0f\n\n",
		trace.Engine, trace.TuplesTransferred, trace.StratumUnits, trace.DBMSUnits, trace.TransferUnits)
	fmt.Printf("result (%d tuples):\n%s", result.Len(), result)
}

// sortedCatalog rebuilds a catalog with every base relation physically
// sorted on its value attributes (non-time, in schema order) and the order
// declared in BaseInfo, so the static planner can reason from it. Other
// base flags (distinctness, coalescing) are preserved — sorting cannot
// invalidate them.
func sortedCatalog(cat *tqp.Catalog) (*tqp.Catalog, error) {
	out := tqp.NewCatalog()
	for _, name := range cat.Names() {
		e, err := cat.Entry(name)
		if err != nil {
			return nil, err
		}
		r := e.Rel
		var spec relation.OrderSpec
		s := r.Schema()
		t1, t2 := s.TimeIndices()
		for i := 0; i < s.Len(); i++ {
			if i == t1 || i == t2 {
				continue
			}
			spec = append(spec, relation.Key(s.At(i).Name))
		}
		info := e.Info
		if len(spec) > 0 {
			if r, err = r.Sorted(spec); err != nil {
				return nil, err
			}
			info.Order = spec
		}
		if err := out.Add(name, r, info); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func indent(s string) string {
	out := "  "
	for _, c := range s {
		out += string(c)
		if c == '\n' {
			out += "  "
		}
	}
	return out
}
