package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"sync"
	"time"
)

// QueryRecord is one per-query structured log line. Latencies are split
// the way the server's pipeline is staged: queue (admission wait), plan
// (parse+optimize, 0 on cache hit), exec (engine evaluation), stream
// (result frames on the wire). All fields are stable JSON — the record is
// the schema external log pipelines parse.
type QueryRecord struct {
	Time         time.Time `json:"time"`
	SQLHash      string    `json:"sql_hash"`         // hash of the normalized statement
	Fingerprint  string    `json:"plan_fingerprint"` // plan identity (catalog+engine+sql)
	Engine       string    `json:"engine"`           // engine spec name
	Parallelism  int       `json:"parallelism,omitempty"`
	MemoryBudget int64     `json:"memory_budget,omitempty"`
	CacheHit     bool      `json:"cache_hit"`
	Rows         int64     `json:"rows"`
	QueueMS      float64   `json:"queue_ms"`
	PlanMS       float64   `json:"plan_ms"`
	ExecMS       float64   `json:"exec_ms"`
	StreamMS     float64   `json:"stream_ms"`
	PeakBytes    int64     `json:"peak_bytes,omitempty"`
	SpilledOps   int64     `json:"spilled_ops,omitempty"`
	SpilledBytes int64     `json:"spilled_bytes,omitempty"`
	SpillFiles   int64     `json:"spill_files,omitempty"`
	Code         string    `json:"code,omitempty"` // error code on failure, empty on success
}

// TotalMS is the end-to-end latency the slow threshold applies to.
func (r *QueryRecord) TotalMS() float64 {
	return r.QueueMS + r.PlanMS + r.ExecMS + r.StreamMS
}

// Hash returns the stable 16-hex-char identity hash (truncated SHA-256)
// the observability layer keys things by: normalized SQL statements in
// the query log (callers normalize first, server.NormalizeSQL, so
// literal-spacing variants collapse) and canonical plan text for plan
// fingerprints.
func Hash(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:8])
}

// Sink receives completed query records. Implementations must be safe
// for concurrent use or wrap themselves in a lock; WriterSink locks.
type Sink interface {
	Emit(*QueryRecord)
}

// writerSink marshals records as JSON lines under a mutex.
type writerSink struct {
	mu sync.Mutex
	w  io.Writer
}

// WriterSink returns a Sink writing one JSON object per line to w.
func WriterSink(w io.Writer) Sink { return &writerSink{w: w} }

func (s *writerSink) Emit(r *QueryRecord) {
	b, err := json.Marshal(r)
	if err != nil {
		return
	}
	b = append(b, '\n')
	s.mu.Lock()
	defer s.mu.Unlock()
	_, _ = s.w.Write(b)
}

// QueryLog filters records through a slow threshold before handing them
// to the sink. SlowMS semantics: < 0 disables logging entirely, 0 logs
// every query, > 0 logs only queries whose total latency meets the
// threshold. Failed queries (Code != "") always log when logging is
// enabled — errors are the records you never want sampled away.
type QueryLog struct {
	sink   Sink
	slowMS float64
}

// NewQueryLog builds a log over sink. A nil sink disables logging
// regardless of slowMS.
func NewQueryLog(sink Sink, slowMS float64) *QueryLog {
	if sink == nil {
		slowMS = -1
	}
	return &QueryLog{sink: sink, slowMS: slowMS}
}

// Enabled reports whether Emit can ever write.
func (l *QueryLog) Enabled() bool { return l != nil && l.slowMS >= 0 }

// Emit applies the threshold and forwards r to the sink.
func (l *QueryLog) Emit(r *QueryRecord) {
	if !l.Enabled() {
		return
	}
	if r.Code == "" && r.TotalMS() < l.slowMS {
		return
	}
	l.sink.Emit(r)
}
