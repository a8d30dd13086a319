// Package server is the concurrent temporal-query service: a TCP server
// speaking a length-prefixed frame protocol over the optimizer assembled in
// internal/core. It adds the three things the in-process API lacks for
// serving repetitive multiset workloads to many clients at once:
//
//   - per-connection sessions carrying engine settings (engine, worker
//     count, memory budget), adjustable mid-session via SET statements;
//   - a shared plan cache mapping (normalized statement, catalog
//     fingerprint, engine spec) to a prepared physical plan, so repeat
//     statements skip parsing and beam enumeration entirely; and
//   - an admission controller that caps concurrent queries and divides the
//     server's global memory budget and worker pool into per-query shares,
//     queueing excess arrivals with a deadline and rejecting with a typed
//     error when saturated.
//
// The wire protocol is deliberately small. Every message is one frame: a
// 4-byte big-endian header holding the payload length, then the payload.
// Clients send Request frames; the server answers each request with one or
// more Response frames. A query answer is a "schema" frame, zero or more
// "rows" frames (batched), and a terminal "done" frame — or a single
// "error" frame. Control frames carry JSON. A rows frame carries the one
// row codec of the system raw: its header has the top bit set, and its
// payload is one checksummed columnar block of internal/spill holding its
// rows' exact values and their sequence keys, which the client decodes in
// place against the schema frame's columns.
package server

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"

	"tqp/internal/obs"
	"tqp/internal/relation"
	"tqp/internal/schema"
	"tqp/internal/value"
)

// MaxFrame bounds a single protocol frame. A peer announcing a larger
// payload is malformed (or hostile); the connection is dropped rather than
// the allocation attempted.
const MaxFrame = 64 << 20

// Request operations.
const (
	// OpQuery optimizes and executes a statement (or applies a SET
	// statement; see ParseSet).
	OpQuery = "query"
	// OpSet updates one session setting: name ∈ {engine, parallel, mem}.
	OpSet = "set"
	// OpStats returns server-wide cache and admission statistics.
	OpStats = "stats"
	// OpPing answers with a pong frame; a connectivity check.
	OpPing = "ping"
	// OpPartial executes a partial plan (a pushed-down plan fragment; see
	// WirePlan) against the server's catalog shard, streaming the fragment's
	// rows plus their global sequence keys back for the coordinator's
	// deterministic merge.
	OpPartial = "partial"
)

// Response kinds.
const (
	KindSchema = "schema"
	KindRows   = "rows"
	KindDone   = "done"
	KindOK     = "ok"
	KindError  = "error"
	KindStats  = "stats"
	KindPong   = "pong"
)

// Error codes carried by error responses. Clients branch on the code, not
// the message.
const (
	// CodeProto marks a malformed request (unknown op, bad frame payload).
	CodeProto = "proto"
	// CodeParse marks a statement the tsql dialect rejects.
	CodeParse = "parse"
	// CodePlan marks a statement that parsed but could not be planned.
	CodePlan = "plan"
	// CodeExec marks a runtime execution failure (e.g. division by zero).
	CodeExec = "exec"
	// CodeAdmission marks rejection by the admission controller: the
	// concurrency cap is reached and the queue is full, or the queue
	// deadline expired before a slot freed up.
	CodeAdmission = "admission"
	// CodeShutdown marks a query arriving while the server drains.
	CodeShutdown = "shutdown"
	// CodeSet marks an invalid session setting.
	CodeSet = "set"
)

// Request is one client→server message.
type Request struct {
	Op string `json:"op"`
	// SQL is the statement text (OpQuery).
	SQL string `json:"sql,omitempty"`
	// Name/Value carry a session setting (OpSet).
	Name  string `json:"name,omitempty"`
	Value string `json:"value,omitempty"`
	// Plan is the pushed-down plan fragment (OpPartial).
	Plan *WirePlan `json:"plan,omitempty"`
}

// Col is one result column of a schema frame.
type Col struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
}

// Order is one key of the result's delivered order.
type Order struct {
	Attr string `json:"attr"`
	Desc bool   `json:"desc,omitempty"`
}

// Done summarizes a completed query.
type Done struct {
	// Tuples is the result cardinality (the rows frames sum to it).
	Tuples int `json:"tuples"`
	// Plans is the number of plans the beam enumeration visited when this
	// statement was prepared (a cache hit reports the cached preparation's
	// count).
	Plans int `json:"plans"`
	// CacheHit reports whether the physical plan came from the plan cache.
	CacheHit bool `json:"cache_hit"`
	// BestCost is the cost model's estimate for the executed plan.
	BestCost float64 `json:"best_cost"`
	// TuplesTransferred counts tuples crossing the stratum/DBMS boundary.
	TuplesTransferred int `json:"tuples_transferred"`
	// Engine names the physical engine spec the query ran on.
	Engine string `json:"engine"`
}

// WireError is the payload of an error response.
type WireError struct {
	Code string `json:"code"`
	Msg  string `json:"msg"`
}

// StatsReply is the payload of a stats response. The observability fields
// below Fingerprint are extensions: they carry omitempty, so an old
// client parsing a new server (or the reverse) sees the original shape
// and simply lacks the extras.
type StatsReply struct {
	Cache       CacheStats     `json:"cache"`
	Admission   AdmissionStats `json:"admission"`
	Conns       int            `json:"conns"`
	Fingerprint string         `json:"fingerprint"`

	// UptimeSeconds is the server process's age.
	UptimeSeconds float64 `json:"uptime_seconds,omitempty"`
	// Queries counts every query the serving path accepted, failures
	// included.
	Queries int64 `json:"queries,omitempty"`
	// Errors counts failed queries by wire error code.
	Errors map[string]int64 `json:"errors,omitempty"`
	// Latency and QueueWait summarize the registry's histograms (seconds).
	Latency   *obs.Snapshot `json:"latency,omitempty"`
	QueueWait *obs.Snapshot `json:"queue_wait,omitempty"`
	// Coord is present when the replying endpoint is a coordinator rather
	// than a shard server.
	Coord *CoordStats `json:"coord,omitempty"`
}

// CoordStats is the coordinator's section of a stats reply: scatter/gather
// provenance a shard server has no equivalent of.
type CoordStats struct {
	// Shards is the fleet size.
	Shards int `json:"shards"`
	// Queries and CacheHits count coordinator-planned statements.
	Queries   int64 `json:"queries"`
	CacheHits int64 `json:"cache_hits"`
	// Fragments counts pushed-down fragments by how their shard outputs
	// merge: "chain", "sorted" or "grouped".
	Fragments map[string]int `json:"fragments,omitempty"`
	// ShardCalls and Retries count partial-plan round trips and the
	// redial-and-retry recoveries among them.
	ShardCalls int64 `json:"shard_calls"`
	Retries    int64 `json:"retries"`
}

// Response is one server→client message. A schema frame carries Cols,
// Order and Keyed; a rows frame carries Block, one spill block (see
// spill.EncodeBlock) whose row count, values, sequence keys and checksum
// the block itself holds.
type Response struct {
	Kind  string  `json:"kind"`
	Cols  []Col   `json:"cols,omitempty"`
	Order []Order `json:"order,omitempty"`
	// Keyed says the rows frames' sequence keys are provenance: the rows'
	// global positions in the unsharded relation, on a partial-plan answer
	// whose fragment preserves per-tuple provenance. Otherwise the keys
	// carry nothing and the client drops them.
	Keyed bool `json:"keyed,omitempty"`
	// Block is a rows frame's body, which crosses the wire raw (see
	// WriteFrame), never inside JSON.
	Block []byte      `json:"-"`
	Done  *Done       `json:"done,omitempty"`
	Err   *WireError  `json:"error,omitempty"`
	Stats *StatsReply `json:"stats,omitempty"`
}

// ServerError is the client-side form of an error response.
type ServerError struct {
	Code string
	Msg  string
}

func (e *ServerError) Error() string { return fmt.Sprintf("server: [%s] %s", e.Code, e.Msg) }

// protoErr types a malformed-frame failure from the decode path: every way
// a peer's frames can be malformed — wrong frame kind, undecodable schema,
// a torn, corrupt or kind-confused block, a lying done count — surfaces as
// the same typed proto error a server-side frame rejection carries, so
// callers branch on the code rather than on message text.
func protoErr(err error) error {
	if se, ok := err.(*ServerError); ok {
		return se
	}
	return &ServerError{Code: CodeProto, Msg: err.Error()}
}

// rawFrame flags a frame header whose payload is a raw rows block rather
// than JSON. MaxFrame needs only the low 27 bits of the length, so the top
// bit is free; a reader that does not know the flag sees an over-limit
// length and drops the connection rather than misreading the frame.
const rawFrame = 1 << 31

// WriteFrame writes v as one length-prefixed frame: a rows Response as its
// raw block under a flagged header, anything else as JSON.
func WriteFrame(w io.Writer, v any) error {
	payload, flag := []byte(nil), uint32(0)
	if resp, ok := v.(*Response); ok && resp.Kind == KindRows {
		payload, flag = resp.Block, rawFrame
	} else {
		var err error
		if payload, err = json.Marshal(v); err != nil {
			return fmt.Errorf("server: encoding frame: %w", err)
		}
	}
	if len(payload) > MaxFrame {
		return fmt.Errorf("server: frame of %d bytes exceeds the %d-byte limit", len(payload), MaxFrame)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], flag|uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one length-prefixed frame into v. A raw frame is a rows
// Response: v must be a *Response, whose Block receives the frame's bytes,
// reusing the capacity Block already has. Any other frame is JSON, and a
// JSON rows frame is malformed: rows travel only raw. io.EOF before the
// first header byte means a clean peer hangup and is returned verbatim; a
// partial frame is an io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader, v any) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return fmt.Errorf("server: reading frame header: %w", err)
	}
	h := binary.BigEndian.Uint32(hdr[:])
	n := h &^ rawFrame
	if n > MaxFrame {
		return fmt.Errorf("%w: peer announced a %d-byte frame (limit %d)", errOversize, n, MaxFrame)
	}
	resp, _ := v.(*Response)
	var scratch []byte
	if resp != nil {
		scratch = resp.Block
	}
	payload, err := readPayload(r, scratch[:0], int(n))
	if err != nil {
		return fmt.Errorf("server: reading frame payload: %w", err)
	}
	if h&rawFrame != 0 {
		if resp == nil {
			return fmt.Errorf("%w: a raw rows frame where a %T is expected", errBadPayload, v)
		}
		*resp = Response{Kind: KindRows, Block: payload}
		return nil
	}
	if resp != nil {
		resp.Block = nil
	}
	if err := json.Unmarshal(payload, v); err != nil {
		return fmt.Errorf("%w: %v", errBadPayload, err)
	}
	if resp != nil && resp.Kind == KindRows {
		return fmt.Errorf("%w: a JSON rows frame (rows travel only as raw frames)", errBadPayload)
	}
	return nil
}

// readPayload reads an n-byte frame payload into buf's storage. The buffer
// grows only as bytes arrive, so a length claim from a hostile or broken
// peer costs what the peer sends, not what its header says.
func readPayload(r io.Reader, buf []byte, n int) ([]byte, error) {
	for len(buf) < n {
		chunk := min(n-len(buf), 64<<10)
		buf = slices.Grow(buf, chunk)
		got, err := io.ReadFull(r, buf[len(buf):len(buf)+chunk])
		buf = buf[:len(buf)+got]
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// errOversize marks a header announcing more than MaxFrame bytes: the
// connection is dropped rather than the allocation attempted.
var errOversize = errors.New("server: oversize frame")

// errBadPayload marks a well-framed message whose payload failed to decode
// as what the reader expects. The frame was fully consumed, so the stream
// is still in sync — ServeRequests answers with a proto error and keeps
// serving the connection, unlike framing errors, which are unrecoverable.
var errBadPayload = errors.New("server: bad frame payload")

// colsOf renders a schema for the wire.
func colsOf(s *schema.Schema) []Col {
	out := make([]Col, s.Len())
	for i := 0; i < s.Len(); i++ {
		a := s.At(i)
		out[i] = Col{Name: a.Name, Kind: a.Kind.String()}
	}
	return out
}

// schemaOf rebuilds a schema from wire columns.
func schemaOf(cols []Col) (*schema.Schema, error) {
	attrs := make([]schema.Attribute, len(cols))
	for i, c := range cols {
		k, err := value.ParseKind(c.Kind)
		if err != nil {
			return nil, err
		}
		attrs[i] = schema.Attr(c.Name, k)
	}
	return schema.New(attrs...)
}

// orderOf renders an order spec for the wire.
func orderOf(o relation.OrderSpec) []Order {
	out := make([]Order, len(o))
	for i, k := range o {
		out[i] = Order{Attr: k.Attr, Desc: k.Dir == relation.Desc}
	}
	return out
}

// orderSpecOf rebuilds an order spec from wire keys.
func orderSpecOf(keys []Order) relation.OrderSpec {
	if len(keys) == 0 {
		return nil
	}
	out := make(relation.OrderSpec, len(keys))
	for i, k := range keys {
		if k.Desc {
			out[i] = relation.KeyDesc(k.Attr)
		} else {
			out[i] = relation.Key(k.Attr)
		}
	}
	return out
}

// NormalizeSQL is the plan cache's statement normal form: runs of
// whitespace outside single-quoted literals collapse to one space, leading
// and trailing whitespace is trimmed, and a trailing semicolon is dropped.
// A doubled quote inside a literal is the dialect's escape for a quote
// character ('it”s'), so it keeps the in-literal state — whitespace in the
// remainder of the literal is part of the value and is never collapsed.
// It is deliberately conservative — identifier and keyword case are left
// alone (identifiers are case-sensitive in the dialect), so a case variant
// is merely a cache miss, never a wrong hit.
func NormalizeSQL(sql string) string {
	var b strings.Builder
	b.Grow(len(sql))
	inQuote := false
	space := false
	for i := 0; i < len(sql); i++ {
		c := sql[i]
		if inQuote {
			b.WriteByte(c)
			if c == '\'' {
				if i+1 < len(sql) && sql[i+1] == '\'' {
					// Escaped quote: emit both halves, stay in the literal.
					b.WriteByte('\'')
					i++
					continue
				}
				inQuote = false
			}
			continue
		}
		switch {
		case c == '\'':
			if space && b.Len() > 0 {
				b.WriteByte(' ')
			}
			space = false
			inQuote = true
			b.WriteByte(c)
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			space = true
		default:
			if space && b.Len() > 0 {
				b.WriteByte(' ')
			}
			space = false
			b.WriteByte(c)
		}
	}
	return strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(b.String()), ";"))
}

// ParseSet recognizes a SET statement — "SET name value" or
// "SET name = value" (name case-insensitive) — the in-band form of the
// protocol's set operation, so sessions can be reconfigured from any plain
// query source (tqshell scripts, the examples). ok is false when the text
// is not a SET statement at all; a malformed SET returns an error.
func ParseSet(sql string) (name, val string, ok bool, err error) {
	trimmed := strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(sql), ";"))
	fields := strings.Fields(trimmed)
	if len(fields) == 0 || !strings.EqualFold(fields[0], "SET") {
		return "", "", false, nil
	}
	rest := strings.ReplaceAll(strings.TrimSpace(trimmed[len(fields[0]):]), "=", " ")
	fields = strings.Fields(rest)
	if len(fields) != 2 {
		return "", "", true, fmt.Errorf("server: malformed SET (want SET engine|parallel|mem VALUE): %q", sql)
	}
	return strings.ToLower(fields[0]), fields[1], true, nil
}
