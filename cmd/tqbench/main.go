// Command tqbench regenerates every table and figure of the paper and
// prints each experiment's artifact with its verification status (E1–E10;
// see internal/experiments for what each reproduces).
//
// Usage:
//
//	tqbench                  # run all experiments
//	tqbench -run E7          # run one experiment
//	tqbench -engine exec     # run on the streaming hash engine
//	tqbench -engine exec -parallel 8   # morsel-parallel engine, 8 workers
//	tqbench -engine exec -mem 16M      # memory-bounded engine, spilling past 16MB
//	tqbench -quiet           # status lines only
//
// -engine selects the physical engine for plan evaluation and stratum
// subplans ("reference", "exec" or "parallel"); -parallel sets the worker
// count of the morsel-parallel engine; -mem bounds the exec engine's
// blocking-operator working sets (grace-hash spilling to temp files; "64K",
// "16M", "1G" or plain bytes). All engines agree list-exactly at every
// budget, so the artifacts must come out identical either way — running
// with -engine exec (or parallel, or a -mem budget) doubles as an
// end-to-end differential check. Exit status is 1 if an experiment fails
// and 2 on a bad flag, including a -run id no experiment has.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"tqp/internal/core"
	"tqp/internal/exec"
	"tqp/internal/experiments"
)

func main() {
	run := flag.String("run", "", "run only the experiment with this id (E1..E10)")
	engine := flag.String("engine", "reference", "physical engine: 'reference', 'exec' or 'parallel'")
	parallel := flag.Int("parallel", 0, "worker count for the morsel-parallel engine (with -engine exec|parallel)")
	mem := flag.String("mem", "", "memory budget for the exec engine's blocking operators, e.g. 64K, 16MB, 1GB (0 or empty = unlimited)")
	quiet := flag.Bool("quiet", false, "print status lines only")
	flag.Parse()

	budget, err := core.ParseBytes(*mem)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tqbench: -mem: %v\n", err)
		os.Exit(2)
	}
	spec, err := core.EngineFor(*engine, exec.Config{Parallelism: *parallel, MemoryBudget: budget})
	if err != nil {
		fmt.Fprintf(os.Stderr, "tqbench: %v\n", err)
		os.Exit(2)
	}

	failed, matched := 0, 0
	var ids []string
	for _, r := range experiments.AllWith(spec) {
		ids = append(ids, r.ID)
		if *run != "" && r.ID != *run {
			continue
		}
		matched++
		status := "PASS"
		if !r.Pass {
			status = "FAIL"
			failed++
		}
		fmt.Printf("== %-4s [%s] %s\n", r.ID, status, r.Title)
		if !*quiet {
			fmt.Print(r.Body)
			fmt.Println()
		}
	}
	if matched == 0 {
		fmt.Fprintf(os.Stderr, "tqbench: -run: no experiment %q; valid ids: %s\n", *run, strings.Join(ids, " "))
		os.Exit(2)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "tqbench: %d experiment(s) failed\n", failed)
		os.Exit(1)
	}
}
