package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"net"
	"runtime"
	"slices"
	"testing"

	"tqp/internal/catalog"
	"tqp/internal/relation"
	"tqp/internal/schema"
	"tqp/internal/spill"
	"tqp/internal/value"
)

// TestZeroArityRowsSurviveWire pins that a result with no columns keeps
// its row count on the wire: a block carries the count, both as a bare
// block and through the server's frames into a client.
func TestZeroArityRowsSurviveWire(t *testing.T) {
	sch := schema.MustNew()
	tuples := []relation.Tuple{{}, {}, {}}

	block := blockOf([]int{0, 0, 0}, tuples...)
	back, _, err := blockTuples(block, sch, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(tuples) {
		t.Fatalf("block round trip kept %d of %d zero-arity rows", len(back), len(tuples))
	}

	rel := relation.FromTuplesTrusted(sch, tuples)
	c := fakePeer(t, func(br *bufio.Reader, bw *bufio.Writer) {
		readRequest(t, br)
		if err := StreamResult(bw, rel, 2, &Done{Tuples: rel.Len()}); err != nil {
			t.Errorf("streaming: %v", err)
		}
	})
	got, _, err := c.Query(context.Background(), "SELECT FROM R")
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != len(tuples) {
		t.Fatalf("wire round trip kept %d of %d zero-arity rows", got.Len(), len(tuples))
	}
}

// fakePeer runs script against the server side of an in-memory connection
// and returns a Client wired to the other side. script receives the peer's
// reader/writer; the client under test talks to whatever frames it sends.
func fakePeer(t *testing.T, script func(br *bufio.Reader, bw *bufio.Writer)) *Client {
	t.Helper()
	cliConn, srvConn := net.Pipe()
	t.Cleanup(func() { cliConn.Close(); srvConn.Close() })
	go func() {
		br, bw := bufio.NewReader(srvConn), bufio.NewWriter(srvConn)
		script(br, bw)
		bw.Flush()
	}()
	return &Client{conn: cliConn, br: bufio.NewReader(cliConn), bw: bufio.NewWriter(cliConn)}
}

// readRequest consumes the client's request frame so the pipe does not stall.
func readRequest(t *testing.T, br *bufio.Reader) {
	t.Helper()
	var req Request
	if err := ReadFrame(br, &req); err != nil {
		t.Errorf("reading client request: %v", err)
	}
}

// sealBlock frames a hand-built block payload the way the spill encoder
// does — length prefix, payload, CRC-32C — so a test can send a block whose
// checksum holds but whose contents lie.
func sealBlock(payload []byte) []byte {
	out := binary.AppendUvarint(nil, uint64(len(payload)))
	out = append(out, payload...)
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
}

// TestClientMalformedFramesAreTypedProtoErrors pins the contract the decode
// fuzzing established: any malformed frame from a peer — a torn, corrupt or
// schema-confused block, a lying done count, an unexpected frame kind —
// surfaces from Client.Query as a *ServerError carrying CodeProto, not an
// untyped string.
func TestClientMalformedFramesAreTypedProtoErrors(t *testing.T) {
	schemaFrame := &Response{Kind: KindSchema, Cols: []Col{{Name: "N", Kind: "int"}}}
	rows := func(block []byte) *Response { return &Response{Kind: KindRows, Block: block} }
	good := blockOf([]int{0, 0}, relation.Tuple{value.Int(1)}, relation.Tuple{value.Int(2)})
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x40
	// Two rows claimed, one cell present: a ragged column under a valid
	// checksum.
	ragged := sealBlock([]byte{2, 1, 0, 0, byte(value.KindInt), 2})
	cases := []struct {
		name   string
		frames []*Response
	}{
		{"not a schema frame", []*Response{{Kind: KindPong}}},
		{"undecodable schema kind", []*Response{{Kind: KindSchema, Cols: []Col{{Name: "N", Kind: "complex128"}}}}},
		{"ragged columnar frame", []*Response{schemaFrame, rows(ragged)}},
		{"truncated block", []*Response{schemaFrame, rows(good[:len(good)-3])}},
		{"checksum mismatch", []*Response{schemaFrame, rows(flipped)}},
		{"rows frame without a block", []*Response{schemaFrame, {Kind: KindRows}}},
		{"kind-confused cell", []*Response{schemaFrame, rows(blockOf([]int{0, 0},
			relation.Tuple{value.Int(1)}, relation.Tuple{value.String_("not-an-int")}))}},
		{"kind-confused column", []*Response{schemaFrame, rows(blockOf([]int{0},
			relation.Tuple{value.String_("not-an-int")}))}},
		{"arity differs from schema", []*Response{schemaFrame, rows(blockOf([]int{0},
			relation.Tuple{value.Int(1), value.Int(2)}))}},
		{"trailing bytes", []*Response{schemaFrame, rows(append(append([]byte(nil), good...), 0x03, 0x01))}},
		{"done frame without payload", []*Response{schemaFrame, {Kind: KindDone}}},
		{"lying done count", []*Response{schemaFrame, rows(good), {Kind: KindDone, Done: &Done{Tuples: 7}}}},
		{"stats frame mid-stream", []*Response{schemaFrame, {Kind: KindStats, Stats: &StatsReply{}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := fakePeer(t, func(br *bufio.Reader, bw *bufio.Writer) {
				readRequest(t, br)
				for _, f := range tc.frames {
					if err := WriteFrame(bw, f); err != nil {
						t.Errorf("writing frame: %v", err)
						return
					}
					bw.Flush()
				}
			})
			_, _, err := c.Query(context.Background(), "SELECT N FROM R")
			if err == nil {
				t.Fatal("malformed stream decoded without error")
			}
			var se *ServerError
			if !errors.As(err, &se) {
				t.Fatalf("error is untyped: %v", err)
			}
			if se.Code != CodeProto {
				t.Fatalf("error carries code %q, want %q: %v", se.Code, CodeProto, se)
			}
		})
	}
}

// writeHintedAnswer streams rel as a peer whose schema frame claims hint
// rows and whose done frame claims tuples: the rows frames are rel's,
// ResultBatchRows to a frame, each block with zero keys.
func writeHintedAnswer(t *testing.T, bw *bufio.Writer, rel *relation.Relation, hint, tuples int) {
	t.Helper()
	frames := []*Response{{Kind: KindSchema, Cols: colsOf(rel.Schema()), Rows: hint}}
	b := rel.Columns()
	for from := 0; from < b.Rows(); from += ResultBatchRows {
		to := min(from+ResultBatchRows, b.Rows())
		frames = append(frames, &Response{Kind: KindRows, Block: spill.EncodeBlock(nil, zeroKeys[:to-from], b, from)})
	}
	frames = append(frames, &Response{Kind: KindDone, Done: &Done{Tuples: tuples}})
	for _, f := range frames {
		if err := WriteFrame(bw, f); err != nil {
			t.Errorf("writing frame: %v", err)
			return
		}
		bw.Flush()
	}
}

// TestLyingRowsHint: the schema frame's row count comes from a peer, so it
// is only a hint. A huge, a negative, a short and a long hint each decode
// to the streamed list when the done frame matches the rows sent, and to
// the typed proto error when it does not; a 1<<40 hint presizes at most
// maxHintCells cells, and costs no more than that in bytes.
func TestLyingRowsHint(t *testing.T) {
	const sent = 700
	ts := make([]relation.Tuple, sent)
	for i := range ts {
		ts[i] = relation.NewTuple(value.Int(int64(i)), value.String_(fmt.Sprint("e", i%13)))
	}
	sch := schema.MustNew(schema.Attr("N", value.KindInt), schema.Attr("S", value.KindString))
	rel := relation.FromTuplesTrusted(sch, ts)
	for _, hint := range []int{1 << 40, -5, 10, sent + 1000} {
		for _, tuples := range []int{sent, sent - 1} {
			t.Run(fmt.Sprintf("hint=%d/done=%d", hint, tuples), func(t *testing.T) {
				c := fakePeer(t, func(br *bufio.Reader, bw *bufio.Writer) {
					readRequest(t, br)
					writeHintedAnswer(t, bw, rel, hint, tuples)
				})
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				got, _, err := c.Query(context.Background(), "SELECT N, S FROM R")
				runtime.ReadMemStats(&after)
				if n := after.TotalAlloc - before.TotalAlloc; n > 16*maxHintCells+1<<20 {
					t.Fatalf("a %d-row hint allocated %d bytes", hint, n)
				}
				if tuples != sent {
					var se *ServerError
					if !errors.As(err, &se) || se.Code != CodeProto {
						t.Fatalf("a done frame claiming %d of %d rows: want a proto error, got %v", tuples, sent, err)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				if !got.EqualAsList(rel) {
					t.Fatal("result differs from the streamed relation")
				}
				for j, col := range got.Columns().Cols {
					if c := max(cap(col.Ints), cap(col.Strs)); c > max(sent, maxHintCells/sch.Len()) {
						t.Fatalf("column %d presized to %d rows on a %d-row hint", j, c, hint)
					}
				}
			})
		}
	}
}

// TestRowsHintPresizesOnce: a client sizes its planes once from the schema
// frame's row count, so an answer of many rows frames decodes with no
// regrowth — the plane's capacity is the row count exactly — and a keyed
// partial answer sizes its sequence keys the same way.
func TestRowsHintPresizesOnce(t *testing.T) {
	const n = 4096
	ts := make([]relation.Tuple, n)
	keys := make([]int, n)
	for i := range ts {
		ts[i] = relation.NewTuple(value.Int(int64(i)))
		keys[i] = 3 * i
	}
	rel := relation.FromTuplesTrusted(schema.MustNew(schema.Attr("N", value.KindInt)), ts)

	c := fakePeer(t, func(br *bufio.Reader, bw *bufio.Writer) {
		readRequest(t, br)
		if err := StreamResult(bw, rel, 0, &Done{Tuples: rel.Len()}); err != nil {
			t.Error(err)
		}
	})
	got, _, err := c.Query(context.Background(), "SELECT N FROM R")
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualAsList(rel) {
		t.Fatal("result differs from the streamed relation")
	}
	if c := cap(got.Columns().Cols[0].Ints); c != n {
		t.Fatalf("a %d-row answer decoded onto a plane of capacity %d", n, c)
	}

	c = fakePeer(t, func(br *bufio.Reader, bw *bufio.Writer) {
		readRequest(t, br)
		if err := streamResult(bw, rel, keys, ResultBatchRows, &Done{Tuples: rel.Len()}, nil); err != nil {
			t.Error(err)
		}
	})
	got, gotKeys, err := c.Partial(context.Background(), &WirePlan{Op: "rel", Rel: "R"})
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualAsList(rel) || !slices.Equal(gotKeys, keys) {
		t.Fatal("keyed answer differs from the streamed relation and keys")
	}
	if c := cap(got.Columns().Cols[0].Ints); c != n {
		t.Fatalf("a %d-row keyed answer decoded onto a plane of capacity %d", n, c)
	}
	if c := cap(gotKeys); c != n {
		t.Fatalf("%d sequence keys decoded into a slice of capacity %d", n, c)
	}
}

// answerFrames sends req on a fresh connection to addr and reads the
// answer's schema and done frames.
func answerFrames(t *testing.T, addr string, req *Request) (*Response, *Done) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteFrame(conn, req); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	var head *Response
	for {
		var resp Response
		if err := ReadFrame(br, &resp); err != nil {
			t.Fatal(err)
		}
		switch resp.Kind {
		case KindSchema:
			head = &resp
		case KindDone:
			if head == nil || resp.Done == nil {
				t.Fatalf("done frame %+v without a schema frame before it", resp)
			}
			return head, resp.Done
		case KindRows:
		default:
			t.Fatalf("unexpected %q frame: %+v", resp.Kind, resp)
		}
	}
}

// TestSchemaFrameCarriesRowCount: a server's query answer and its
// partial-plan answer both carry the done frame's tuple count in the
// schema frame.
func TestSchemaFrameCarriesRowCount(t *testing.T) {
	srv := startServer(t, Config{Catalog: catalog.Paper()})
	for _, req := range []*Request{
		{Op: OpQuery, SQL: "SELECT * FROM EMPLOYEE"},
		{Op: OpPartial, Plan: &WirePlan{Op: "rel", Rel: "EMPLOYEE"}},
	} {
		head, done := answerFrames(t, srv.Addr(), req)
		if done.Tuples == 0 || head.Rows != done.Tuples {
			t.Errorf("%s: schema frame says %d rows, done frame %d tuples", req.Op, head.Rows, done.Tuples)
		}
	}
}
