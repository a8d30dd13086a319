package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"net"
	"testing"

	"tqp/internal/relation"
	"tqp/internal/schema"
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
