package obs_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"tqp/internal/obs"
)

func TestCounterGauge(t *testing.T) {
	r := obs.NewRegistry()
	c := r.Counter("x_total", "help")
	c.Inc()
	c.Add(4)
	c.Add(-7) // counters only go up
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("y", "help")
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

// TestRegistrationIdempotent pins the sharing contract: a second
// registration of the same series returns the same collector, and a
// type-confused re-registration panics.
func TestRegistrationIdempotent(t *testing.T) {
	r := obs.NewRegistry()
	a := r.Counter("x_total", "help")
	b := r.Counter("x_total", "help")
	if a != b {
		t.Fatal("same-series registration must return the existing counter")
	}
	l1 := r.Counter("labeled_total", "help", obs.L("k", "a"))
	l2 := r.Counter("labeled_total", "help", obs.L("k", "b"))
	if l1 == l2 {
		t.Fatal("distinct label sets must be distinct series")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter name as a gauge must panic")
		}
	}()
	r.Gauge("x_total", "help")
}

func TestHistogramQuantiles(t *testing.T) {
	r := obs.NewRegistry()
	h := r.Histogram("lat", "help", []float64{1, 2, 4, 8})
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", got)
	}
	for i := 0; i < 100; i++ {
		h.Observe(1.5) // all land in the (1,2] bucket
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d, want 100", h.Count())
	}
	if got := h.Sum(); got < 149.9 || got > 150.1 {
		t.Fatalf("sum = %v, want 150", got)
	}
	// The whole mass is in (1,2]; the median interpolates to its middle.
	if got := h.Quantile(0.5); got < 1 || got > 2 {
		t.Fatalf("p50 = %v, want within (1,2]", got)
	}
	h.Observe(100) // past the last bound: +Inf bucket
	if got := h.Quantile(1); got != 8 {
		t.Fatalf("p100 with +Inf mass = %v, want last bound 8", got)
	}
	s := h.Snapshot()
	if s.Count != 101 || s.P50 <= 0 {
		t.Fatalf("snapshot = %+v", s)
	}
}

func TestDefaultBuckets(t *testing.T) {
	for _, b := range [][]float64{obs.LatencyBuckets(), obs.SizeBuckets()} {
		if len(b) == 0 {
			t.Fatal("empty default bucket set")
		}
		for i := 1; i < len(b); i++ {
			if b[i] <= b[i-1] {
				t.Fatalf("bounds not ascending: %v", b)
			}
		}
	}
}

// TestWritePrometheus pins the exposition format: HELP/TYPE lines,
// cumulative le buckets, +Inf, _sum/_count, label escaping.
func TestWritePrometheus(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("q_total", "Total queries.").Add(3)
	r.GaugeFunc("up_seconds", "Uptime.", func() float64 { return 1.5 })
	h := r.Histogram("lat_seconds", "Latency.", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(9)
	r.Counter("err_total", `Errors by code.`, obs.L("code", `we"ird`)).Inc()

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP q_total Total queries.\n# TYPE q_total counter\nq_total 3\n",
		"# TYPE up_seconds gauge\nup_seconds 1.5\n",
		"# TYPE lat_seconds histogram\n",
		`lat_seconds_bucket{le="1"} 1`,
		`lat_seconds_bucket{le="2"} 2`,
		`lat_seconds_bucket{le="+Inf"} 3`,
		"lat_seconds_sum 11\n",
		"lat_seconds_count 3\n",
		`err_total{code="we\"ird"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestMetricsHandler serves a registry over the /metrics handler and
// checks content type and body.
func TestMetricsHandler(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("x_total", "help").Add(7)
	srv := httptest.NewServer(obs.Handler(r))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "x_total 7") {
		t.Fatalf("scrape missing counter:\n%s", body)
	}
	// The pprof index must answer on the same listener.
	pp, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	pp.Body.Close()
	if pp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status %d", pp.StatusCode)
	}
}

// TestRegistryRace hammers one registry from 32 goroutines — counters,
// gauges, histograms, lazy label registration — while scrapes render
// concurrently. Run under -race this is the data-race gate for the whole
// metrics layer.
func TestRegistryRace(t *testing.T) {
	r := obs.NewRegistry()
	h := r.Histogram("lat", "help", obs.LatencyBuckets())
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := r.Counter("per_code_total", "help", obs.L("code", string(rune('a'+g%8))))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				r.Gauge("g", "help").Set(int64(i))
				h.Observe(float64(i%100) / 1000)
			}
		}(g)
	}
	for i := 0; i < 50; i++ {
		if err := r.WritePrometheus(io.Discard); err != nil {
			t.Error(err)
		}
	}
	close(stop)
	wg.Wait()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "per_code_total{") {
		t.Fatal("scrape after race missing labeled family")
	}
}

// sinkRecorder captures emitted records for assertions.
type sinkRecorder struct {
	mu   sync.Mutex
	recs []*obs.QueryRecord
}

func (s *sinkRecorder) Emit(r *obs.QueryRecord) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recs = append(s.recs, r)
}

func (s *sinkRecorder) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.recs)
}

func TestQueryLogThresholds(t *testing.T) {
	var nilLog *obs.QueryLog
	if nilLog.Enabled() {
		t.Fatal("nil log must be disabled")
	}
	nilLog.Emit(&obs.QueryRecord{}) // must not panic

	if obs.NewQueryLog(nil, 0).Enabled() {
		t.Fatal("nil sink must disable logging")
	}

	rec := &sinkRecorder{}
	l := obs.NewQueryLog(rec, 10) // slow threshold: 10ms
	l.Emit(&obs.QueryRecord{ExecMS: 5})
	if rec.len() != 0 {
		t.Fatal("fast success must be filtered")
	}
	l.Emit(&obs.QueryRecord{ExecMS: 5, Code: "exec"})
	if rec.len() != 1 {
		t.Fatal("errors must always log")
	}
	l.Emit(&obs.QueryRecord{QueueMS: 4, PlanMS: 4, ExecMS: 4})
	if rec.len() != 2 {
		t.Fatal("slow success (total 12ms >= 10ms) must log")
	}
}

// TestWriterSink pins the query log's line format: one JSON object per
// line, byte for byte — field names, their order, and the spill fields
// omitted when zero — and parseable back into the record shape.
func TestWriterSink(t *testing.T) {
	at := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	spilled := &obs.QueryRecord{
		Time: at, SQLHash: "abc", Fingerprint: "fp", Engine: "exec", Parallelism: 2,
		MemoryBudget: 512 << 10, CacheHit: true, Rows: 3,
		QueueMS: 0.25, PlanMS: 1, ExecMS: 1.5, StreamMS: 0.5,
		Spill: obs.Spill{PeakBytes: 4096, SpilledOps: 2, SpilledBytes: 8192, SpillFiles: 3},
		Code:  "exec",
	}
	plain := &obs.QueryRecord{Time: at, SQLHash: "abc", Engine: "exec", Rows: 3, ExecMS: 1.5}
	var b strings.Builder
	s := obs.WriterSink(&b)
	s.Emit(spilled)
	s.Emit(plain)
	want := `{"time":"2026-01-02T03:04:05Z","sql_hash":"abc","plan_fingerprint":"fp","engine":"exec",` +
		`"parallelism":2,"memory_budget":524288,"cache_hit":true,"rows":3,"queue_ms":0.25,"plan_ms":1,` +
		`"exec_ms":1.5,"stream_ms":0.5,"peak_bytes":4096,"spilled_ops":2,"spilled_bytes":8192,` +
		`"spill_files":3,"code":"exec"}` + "\n" +
		`{"time":"2026-01-02T03:04:05Z","sql_hash":"abc","plan_fingerprint":"","engine":"exec",` +
		`"cache_hit":false,"rows":3,"queue_ms":0,"plan_ms":0,"exec_ms":1.5,"stream_ms":0}` + "\n"
	if got := b.String(); got != want {
		t.Fatalf("query log lines\ngot:  %s\nwant: %s", got, want)
	}
	var back obs.QueryRecord
	if err := json.Unmarshal([]byte(strings.SplitN(want, "\n", 2)[0]), &back); err != nil {
		t.Fatalf("record not JSON: %v", err)
	}
	if back != *spilled {
		t.Fatalf("round trip = %+v, want %+v", back, *spilled)
	}
}

func TestHashStable(t *testing.T) {
	a, b := obs.Hash("SELECT 1"), obs.Hash("SELECT 1")
	if a != b || len(a) != 16 {
		t.Fatalf("Hash not a stable 16-hex id: %q %q", a, b)
	}
	if obs.Hash("SELECT 2") == a {
		t.Fatal("distinct inputs must hash apart")
	}
}

func TestPlanProbe(t *testing.T) {
	p := obs.NewPlanProbe()
	p.Observe("0.1", obs.RunSample{Rows: 5, Wall: time.Millisecond, Spill: obs.Spill{PeakBytes: 10}})
	p.Observe("0.1", obs.RunSample{Rows: 2, Wall: time.Millisecond, Spill: obs.Spill{PeakBytes: 4}})
	p.Observe("ε", obs.RunSample{Rows: 1})
	if p.Len() != 2 {
		t.Fatalf("Len = %d, want 2", p.Len())
	}
	n := p.Get("0.1")
	if n == nil || n.Rows != 7 || n.Evals != 2 || n.Wall != 2*time.Millisecond || n.PeakBytes != 10 {
		t.Fatalf("merged stats = %+v", n)
	}
	if p.Get("missing") != nil {
		t.Fatal("unobserved path must be nil")
	}
	seen := map[string]int64{}
	p.Each(func(path string, n *obs.NodeStats) { seen[path] = n.Rows })
	if seen["ε"] != 1 || seen["0.1"] != 7 {
		t.Fatalf("Each = %v", seen)
	}
}
