// Command bench is the repository's statement-level benchmark: seven named
// workloads, each taking a statement from text (or prepared plan) to a
// verified result list through one of the system's front doors, with the
// time attributed to layers by spans recorded around the calls into them.
// README.md says what is measured and why; ../BENCHMARK.json is the
// contract the numbers are judged against.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"text/tabwriter"
	"time"
)

// benchSpec is BENCHMARK.json: the metric names, units and bounds the
// output and -check are held to.
type benchSpec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specLoad   `json:"workloads"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// findRoot locates the checkout: the benchmark is started either there or
// in its own directory one level down.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", errors.New("BENCHMARK.json not found in . or ..: run from the checkout or from bench/")
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one workload's run reports; its JSON form is the line
// the driver reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// notes are printed beside the end-to-end metrics and are not gated.
	notes []string
}

// resultFile is what -out writes and -check reads.
type resultFile struct {
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Workloads map[string]*result `json:"workloads"`
}

type listFlag []string

func (l *listFlag) String() string     { return strings.Join(*l, ",") }
func (l *listFlag) Set(s string) error { *l = append(*l, s); return nil }

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names listFlag
	fs.Var(&names, "workload", "workload to run (repeatable; default: all seven)")
	seed := fs.Int64("seed", 1, "seed every generated input derives from")
	seconds := fs.Float64("seconds", 0, "length of each measured pass (default: run_seconds of BENCHMARK.json)")
	trace := fs.String("trace", "both", "0: end-to-end pass; 1: traced per-layer pass; both")
	notrace := fs.Bool("notrace", false, "same as -trace 0")
	out := fs.String("out", "", "write every metric of the run to this file, for -check")
	traceDir := fs.String("trace-dir", "", "where trace.<workload>.json goes (default: bench/out)")
	check := fs.Bool("check", false, "compare two -out files: bench -check a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		return fail(err)
	}
	if *check {
		if fs.NArg() != 2 {
			return fail(errors.New("-check takes two result files"))
		}
		return runCheck(spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *notrace {
		*trace = "0"
	}
	if *trace != "0" && *trace != "1" && *trace != "both" {
		return fail(fmt.Errorf("-trace %q: want 0, 1 or both", *trace))
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	if *traceDir == "" {
		*traceDir = filepath.Join(root, "bench", "out")
	}
	if len(names) == 0 {
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}

	// Scratch files (stores, spill runs) stay inside the checkout.
	tmp := filepath.Join(root, ".bench_build", "tmp", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return fail(err)
	}
	defer os.RemoveAll(tmp)

	file := resultFile{Seed: *seed, Seconds: *seconds, Workloads: map[string]*result{}}
	status := 0
	for _, name := range names {
		w := findWorkload(name)
		if w == nil {
			return fail(fmt.Errorf("unknown workload %q", name))
		}
		e := &env{seed: *seed, sz: fullSizes, tmp: tmp}
		r, errs, err := runWorkload(e, w, spec, *trace, time.Duration(*seconds*float64(time.Second)), *traceDir)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", name, err))
		}
		for _, err := range errs {
			fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
		}
		if !r.Correct {
			status = 1
		}
		file.Workloads[name] = r
		printTable(stdout, spec, name, r)
		line, err := json.Marshal(r)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if *out != "" {
		data, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return fail(err)
		}
	}
	return status
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// The end-to-end run sets the workload up at least minSetups times, and
// goes on (up to maxSetups) until setupBudget is spent, so that a set-up of
// a few milliseconds is sampled often enough for its median to hold still.
const (
	minSetups   = 3
	maxSetups   = 9
	setupBudget = 1500 * time.Millisecond
)

// runWorkload sets a workload up and measures it: with trace "0" the
// end-to-end metrics from an untraced pass, with "1" the per-layer metrics
// from a traced pass, with "both" one after the other on one set-up.
func runWorkload(e *env, w *workload, spec *benchSpec, trace string, d time.Duration, traceDir string) (*result, []error, error) {
	ctx, cancel := context.WithTimeout(context.Background(), workloadLimit)
	defer cancel()
	e.ctx = ctx
	var in *instance
	var setups []float64
	for begun := time.Now(); ; {
		if in != nil {
			in.stop()
		}
		start := time.Now()
		var err error
		if in, err = w.setup(e); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		n := len(setups)
		if trace == "1" || n == maxSetups || (n >= minSetups && time.Since(begun) > setupBudget) {
			break
		}
	}
	defer in.stop()

	// A tenth of a pass warms caches and lazy state and is not measured.
	if _, err := runPass(in, d/10, nil); err != nil {
		return nil, nil, err
	}
	r := &result{Correct: true, Metrics: map[string]metric{}}
	var errs []error
	add := func(p *pass) {
		r.Attempted += p.attempted
		r.Failed += p.failed
		r.Correct = r.Correct && p.failed == 0 && p.vacuous == nil && len(p.lat) > 0
		errs = append(errs, p.errs...)
		if p.vacuous != nil {
			errs = append(errs, p.vacuous)
		}
	}
	values := map[string]float64{}
	if trace != "1" {
		p, err := runPass(in, d, nil)
		if err != nil {
			return nil, nil, err
		}
		add(p)
		values["stmt_p50_ms"] = median(p.lat)
		values["stmt_per_s"] = float64(len(p.lat)) / p.wall.Seconds()
		values["allocs_per_stmt"] = float64(p.mallocs) / float64(max(p.attempted, 1))
		values["setup_s"] = median(setups)
		r.notes = []string{
			fmt.Sprintf("stmt_p95_ms\t%.6g\tms", quantile(p.lat, 0.95)),
			fmt.Sprintf("samples\t%d\tcount", len(p.lat)),
		}
		if err := fill(r, spec.EndToEnd, values); err != nil {
			return nil, nil, err
		}
	}
	if trace != "0" {
		// The traced pass is preceded by a short untraced one, so that the
		// cost of tracing is a ratio of two passes of the same run.
		plain, err := runPass(in, d/4, nil)
		if err != nil {
			return nil, nil, err
		}
		add(plain)
		p, err := runPass(in, d-d/4, newRecorder())
		if err != nil {
			return nil, nil, err
		}
		add(p)
		layer, err := layerMetrics(in, p, median(plain.lat))
		if err != nil {
			return nil, nil, err
		}
		if err := fill(r, spec.PerLayer, layer); err != nil {
			return nil, nil, err
		}
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return nil, nil, err
		}
		if err := p.rec.write(filepath.Join(traceDir, "trace."+w.name+".json")); err != nil {
			return nil, nil, err
		}
	}
	return r, errs, nil
}

// fill copies the metrics the contract names from values into the result,
// with the contract's units. A name the run did not produce is an error: the
// code and BENCHMARK.json have drifted apart.
func fill(r *result, metrics []specMetric, values map[string]float64) error {
	for _, m := range metrics {
		v, ok := values[m.Name]
		if !ok {
			return fmt.Errorf("BENCHMARK.json names metric %q, which the run does not produce", m.Name)
		}
		r.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	return nil
}

// layerNames are the per-layer metrics every traced run reports; a layer
// the workload's operation does not pass through reports 0.
var layerNames = []string{
	"parse_ms", "translate_ms", "beam_ms", "prepare_ms", "plans_enumerated",
	"execute_ms", "tuples_transferred", "peak_bytes",
	"spill_bytes", "spill_ops", "budget_over_unbudgeted_x",
	"stream_encode_ms", "frame_bytes_per_row", "wire_ms", "cache_hit_share", "admission_queued_peak",
	"split_ms", "fleet_1shard_ms", "fleet_over_inproc_x", "shard_calls", "retries",
	"fragments_chain", "fragments_sorted", "fragments_grouped",
	"append_ms", "travel_read_ms", "open_ms", "prune_share", "segments_scanned", "segments_skipped",
	"disk_bytes_per_user_byte", "store_segments_written", "store_segments_read",
	"store_bytes_written", "store_bytes_read", "store_commits",
	"harness_ms", "stmt_p95_ms", "samples", "trace_overhead_x",
}

// layerMetrics turns a traced pass into the per-layer metrics: the median
// self time of each span name, the median of each per-operation count, and
// the ratios between them.
func layerMetrics(in *instance, p *pass, untracedP50 float64) (map[string]float64, error) {
	m := make(map[string]float64, len(layerNames))
	for _, name := range layerNames {
		m[name] = 0
	}
	self := selfTimes(p.rec.spans)
	ms := func(name string) float64 { return median(self[name]) }
	for _, name := range []string{"parse", "translate", "beam", "execute", "stream_encode", "split", "fleet_1shard", "append"} {
		m[name+"_ms"] = ms(name)
	}
	m["harness_ms"] = ms("op")
	// Prepare's own share: parse, translate and beam run inside it and
	// cannot be wrapped from outside package core, so each is timed by a
	// separate call on the same text and the medians are subtracted.
	m["prepare_ms"] = max(0, ms("prepare")-ms("parse")-ms("translate")-ms("beam"))
	if rt := ms("roundtrip"); rt > 0 {
		m["wire_ms"] = max(0, rt-ms("prepare")-ms("execute")-ms("stream_encode"))
	}
	if base := ms("execute_unbudgeted"); base > 0 {
		m["budget_over_unbudgeted_x"] = ms("execute") / base
	}
	if fl, base := ms("fleet"), ms("execute"); fl > 0 && base > 0 {
		m["fleet_over_inproc_x"] = fl / base
	}
	for name, vs := range p.rec.counts {
		if _, ok := m[name]; ok {
			m[name] = median(vs)
		}
	}
	m["cache_hit_share"] = mean(p.rec.counts["cache_hit"])
	m["stmt_p95_ms"] = quantile(p.lat, 0.95)
	m["samples"] = float64(len(p.lat))
	if untracedP50 > 0 {
		m["trace_overhead_x"] = median(p.lat) / untracedP50
	}
	if in.layers != nil {
		if err := in.layers(p, m); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// printTable prints a workload's metrics by name and unit, in the
// contract's order. Per-layer metrics of layers the workload does not pass
// through are 0 and are left out.
func printTable(w io.Writer, spec *benchSpec, name string, r *result) {
	fmt.Fprintf(w, "%s: %d operations attempted, %d failed\n", name, r.Attempted, r.Failed)
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	for _, m := range spec.EndToEnd {
		if v, ok := r.Metrics[m.Name]; ok {
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", m.Name, v.Value, v.Unit)
		}
	}
	for _, note := range r.notes {
		fmt.Fprintf(tw, "  %s\n", note)
	}
	for _, m := range spec.PerLayer {
		if v, ok := r.Metrics[m.Name]; ok && v.Value != 0 {
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", m.Name, v.Value, v.Unit)
		}
	}
	tw.Flush()
}
