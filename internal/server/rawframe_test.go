package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"net"
	"runtime"
	"testing"

	"tqp/internal/catalog"
	"tqp/internal/relation"
	"tqp/internal/schema"
	"tqp/internal/value"
)

// goldenBlock is the fixture of internal/spill's TestBlockGoldenBytes: one
// block of int, float, string, bool and time columns plus a heterogeneous
// one, with sequence keys 0, 7, 300, 2^40 and 5.
const goldenBlock = "a70105060007ac02808080808020050100feffffffffffffffff01ffffffffffffffffff0101d804020000000000000080000000000000f0ff0000000000000a409c7500883ce4377e182d4454fb210940030011c3bc6ec3af636f646520e2809420e7958c0b68656c6c6f00776f726c64046974277304416e6e610400010001000500feffffffffffffff3f0954808080808040ff0102030374776f020000000000000c400401050ab098e16f"

// rawHeader renders a frame header by hand.
func rawHeader(h uint32) []byte {
	return binary.BigEndian.AppendUint32(nil, h)
}

// TestRowsFrameGoldenBytes pins the raw rows frame: a 4-byte big-endian
// header holding the block's length with the top bit set, then exactly the
// block's bytes, with no JSON around them. Reading it back yields a rows
// Response whose Block is those bytes. The frame's two malformed
// neighbours are typed proto errors: a JSON rows frame carrying a block,
// and a raw frame sent where a request is expected, which the server
// answers with a proto error frame before serving the next request on the
// same connection.
func TestRowsFrameGoldenBytes(t *testing.T) {
	block, err := hex.DecodeString(goldenBlock)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &Response{Kind: KindRows, Block: block}); err != nil {
		t.Fatal(err)
	}
	want := append(rawHeader(0x800000ad), block...)
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("rows frame:\n got %x\nwant %x", buf.Bytes(), want)
	}
	var got Response
	if err := ReadFrame(&buf, &got); err != nil {
		t.Fatal(err)
	}
	if got.Kind != KindRows || !bytes.Equal(got.Block, block) {
		t.Fatalf("read back kind %q block %x", got.Kind, got.Block)
	}

	t.Run("json rows frame", func(t *testing.T) {
		c := fakePeer(t, func(br *bufio.Reader, bw *bufio.Writer) {
			readRequest(t, br)
			if err := WriteFrame(bw, &Response{Kind: KindSchema, Cols: []Col{{Name: "N", Kind: "int"}}}); err != nil {
				t.Error(err)
			}
			payload := `{"kind":"rows","block":"` + hex.EncodeToString(block) + `"}`
			bw.Write(rawHeader(uint32(len(payload))))
			bw.WriteString(payload)
		})
		_, _, err := c.Query(context.Background(), "SELECT N FROM R")
		var se *ServerError
		if !errors.As(err, &se) || se.Code != CodeProto {
			t.Fatalf("a JSON rows frame: want a proto error, got %v", err)
		}
	})

	t.Run("raw frame as a request", func(t *testing.T) {
		srv := startServer(t, Config{Catalog: catalog.Paper()})
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		if err := WriteFrame(conn, &Response{Kind: KindRows, Block: block}); err != nil {
			t.Fatal(err)
		}
		var resp Response
		if err := ReadFrame(br, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Kind != KindError || resp.Err == nil || resp.Err.Code != CodeProto {
			t.Fatalf("raw frame as a request: got %+v, want a proto error", resp)
		}
		if err := WriteFrame(conn, &Request{Op: OpPing}); err != nil {
			t.Fatal(err)
		}
		if err := ReadFrame(br, &resp); err != nil || resp.Kind != KindPong {
			t.Fatalf("after a proto error the connection must keep serving: %+v, %v", resp, err)
		}
	})
}

// TestReadFrameAllocatesWhatArrives: a header claiming MaxFrame followed
// by a hangup is a typed truncation error, and costs the reader what
// arrived rather than what the header claimed — for a JSON frame and a raw
// one, into a request and a response alike.
func TestReadFrameAllocatesWhatArrives(t *testing.T) {
	for _, h := range []uint32{MaxFrame, rawFrame | MaxFrame} {
		for _, v := range []any{&Request{}, &Response{}} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := ReadFrame(bytes.NewReader(append(rawHeader(h), `{"op":`...)), v)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("header %#x into %T: want a truncation error, got %v", h, v, err)
			}
			if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
				t.Fatalf("header %#x into %T: allocated %d bytes for a 6-byte payload", h, v, n)
			}
		}
	}
}

// TestClientReusesRowsBuffer: a result of many rows frames decodes through
// one read buffer, so reading it allocates for the result's planes, not
// once per frame.
func TestClientReusesRowsBuffer(t *testing.T) {
	ts := make([]relation.Tuple, 4096)
	for i := range ts {
		ts[i] = relation.NewTuple(value.Int(int64(i)))
	}
	rel := relation.FromTuplesTrusted(schema.MustNew(schema.Attr("N", value.KindInt)), ts)
	c := fakePeer(t, func(br *bufio.Reader, bw *bufio.Writer) {
		readRequest(t, br)
		if err := StreamResult(bw, rel, 64, &Done{Tuples: rel.Len()}); err != nil {
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
	if cap(c.rbuf) == 0 || cap(c.rbuf) > 4<<10 {
		t.Fatalf("read buffer capacity %d after 64 frames of 64 rows", cap(c.rbuf))
	}
}

// FuzzReadFrame drives the frame reader with arbitrary byte streams, read
// alternately into requests and responses — raw frames where a request is
// expected, over-limit headers, torn payloads, JSON rows frames. Every
// stream must end in a typed error or a clean EOF: never a panic, never an
// allocation beyond a small multiple of the bytes that arrived.
func FuzzReadFrame(f *testing.F) {
	block, _ := hex.DecodeString(goldenBlock)
	frame := func(v any) []byte {
		var buf bytes.Buffer
		WriteFrame(&buf, v)
		return buf.Bytes()
	}
	ping := frame(&Request{Op: OpPing})
	rows := frame(&Response{Kind: KindRows, Block: block})
	f.Add(append(append([]byte(nil), ping...), rows...))
	f.Add(append(append([]byte(nil), rows...), ping...))
	// A schema frame whose row-count hint lies, ahead of its rows.
	hinted := frame(&Response{Kind: KindSchema, Cols: []Col{{Name: "N", Kind: "int"}}, Rows: 1 << 40})
	f.Add(append(append([]byte(nil), hinted...), rows...))
	f.Add(rows[:len(rows)-7])
	f.Add(rawHeader(MaxFrame + 1))
	f.Add(rawHeader(rawFrame | MaxFrame))
	f.Add(append(rawHeader(rawFrame|7), 1, 2))
	f.Add(append(rawHeader(29), `{"kind":"rows","block":"AA=="}`...))
	f.Add(append(rawHeader(2), "{}"...))
	f.Add([]byte{0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := bytes.NewReader(data)
		var err error
		for i := 0; err == nil || errors.Is(err, errBadPayload); i++ {
			if i%2 == 0 {
				err = ReadFrame(r, &Request{})
			} else {
				err = ReadFrame(r, &Response{})
			}
		}
		runtime.ReadMemStats(&after)
		if err != io.EOF && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, errOversize) {
			t.Fatalf("untyped frame error: %v", err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20+64*uint64(len(data)) {
			t.Fatalf("%d input bytes allocated %d bytes", len(data), n)
		}
	})
}

// TestMalformedFrameDropsConnection: a frame the client rejects mid-answer
// — here a JSON rows frame from an older server, with more rows and the
// done frame still queued behind it — drops the connection, so no later
// request reads a stale frame of that answer and no earlier answer is
// returned as a later statement's. The first call reports the typed proto
// error; every later call fails without reaching the peer, with an error
// that is not a *ServerError, so a caller that redials on connection
// failures redials.
func TestMalformedFrameDropsConnection(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	good := blockOf([]int{0}, relation.Tuple{value.Int(1)})
	requests := make(chan int, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br, bw := bufio.NewReader(conn), bufio.NewWriter(conn)
		schemaFrame := &Response{Kind: KindSchema, Cols: []Col{{Name: "N", Kind: "int"}}}
		n := 0
		defer func() { requests <- n }()
		for ; ; n++ {
			var req Request
			if ReadFrame(br, &req) != nil {
				return
			}
			// Every request gets a well-formed empty answer, except the
			// first, whose answer carries a JSON rows frame mid-stream.
			WriteFrame(bw, schemaFrame)
			if n == 0 {
				payload := `{"kind":"rows","block":"` + hex.EncodeToString(good) + `"}`
				bw.Write(rawHeader(uint32(len(payload))))
				bw.WriteString(payload)
				WriteFrame(bw, &Response{Kind: KindRows, Block: good})
				WriteFrame(bw, &Response{Kind: KindDone, Done: &Done{Tuples: 2}})
			} else {
				WriteFrame(bw, &Response{Kind: KindDone, Done: &Done{}})
			}
			bw.Flush()
		}
	}()
	c, err := Dial(context.Background(), ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = c.Query(context.Background(), "SELECT N FROM R")
	var se *ServerError
	if !errors.As(err, &se) || se.Code != CodeProto {
		t.Fatalf("a JSON rows frame mid-answer: want a proto error, got %v", err)
	}
	for i := 0; i < 4; i++ {
		rel, _, err := c.Query(context.Background(), "SELECT N FROM R")
		if err == nil {
			t.Fatalf("call %d after a malformed frame answered %d rows on the same connection", i+2, rel.Len())
		}
		if errors.As(err, &se) {
			t.Fatalf("call %d after a malformed frame: %v is a *ServerError, so a caller would not redial", i+2, err)
		}
	}
	c.Close()
	if n := <-requests; n != 1 {
		t.Fatalf("the peer read %d requests; the dropped connection must carry only the first", n)
	}
}
