package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// exactCounts are, per workload, the per-layer counts that the program
// makes itself and that must repeat exactly between two runs on one seed.
// A count is exact only where every operation (or every round) of the
// workload does the same work, however many operations a run fits in.
var exactCounts = map[string][]string{
	"plan.cold":    {"plans_enumerated"},
	"exec.paper":   {"tuples_transferred"},
	"exec.budget":  {"spill_bytes", "spill_ops"},
	"wire.scan":    {"frame_bytes_per_row"},
	"fleet.paper":  {"shard_calls"},
	"store.travel": {"segments_scanned", "segments_skipped"},
	"store.ingest": {"segments_scanned", "segments_skipped", "store_bytes_written"},
}

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// runCheck compares two result files metric by metric against the bounds of
// BENCHMARK.json and prints one row per workload and metric. Two single
// runs cannot tell a change from noise, so a difference beyond the bound is
// reported as unresolved (and fails the check when b is the worse side),
// never as unchanged; settling it takes the paired runs README.md describes.
func runCheck(spec *benchSpec, pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readResults(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	b, err := readResults(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return compare(spec, a, b, stdout)
}

func compare(spec *benchSpec, a, b *resultFile, w io.Writer) int {
	status := 0
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta\tb\tb/a\tbound\tverdict")
	for _, wl := range spec.Workloads {
		ra, rb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if ra == nil || rb == nil {
			continue
		}
		if !ra.Correct || !rb.Correct {
			fmt.Fprintf(tw, "%s\tcorrect\t%v\t%v\t\t\tfailed operations\n", wl.Name, ra.Correct, rb.Correct)
			status = 1
		}
		for _, m := range spec.EndToEnd {
			va, okA := ra.Metrics[m.Name]
			vb, okB := rb.Metrics[m.Name]
			if !okA || !okB || va.Value == 0 {
				continue
			}
			ratio := vb.Value / va.Value
			worse := ratio - 1 // how much worse b is than a, as a share of a
			if m.Better == "higher" {
				worse = 1 - ratio
			}
			verdict := "unchanged"
			switch {
			case worse > m.Bound:
				verdict = fmt.Sprintf("unresolved: b worse by %.1f%%", 100*worse)
				status = 1
			case worse < -m.Bound:
				verdict = fmt.Sprintf("unresolved: b better by %.1f%%", -100*worse)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.3f\t%.0f%%\t%s\n",
				wl.Name, m.Name, va.Value, vb.Value, ratio, 100*m.Bound, verdict)
		}
		if a.Seed != b.Seed {
			continue
		}
		for _, name := range exactCounts[wl.Name] {
			va, okA := ra.Metrics[name]
			vb, okB := rb.Metrics[name]
			if !okA || !okB {
				continue
			}
			verdict := "identical"
			if va.Value != vb.Value {
				verdict = "differs: an exact count must repeat"
				status = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t\texact\t%s\n", wl.Name, name, va.Value, vb.Value, verdict)
		}
	}
	tw.Flush()
	fmt.Fprintln(w, "ratios are b/a: the base is the first file")
	return status
}
