package coord_test

import (
	"context"
	"encoding/binary"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"tqp/internal/catalog"
	"tqp/internal/coord"
	"tqp/internal/obs"
	"tqp/internal/server"
)

// startCoordinator builds a coordinator over an in-process shard fleet.
func startCoordinator(t *testing.T, shards int) (*coord.Coordinator, *catalog.Catalog) {
	t.Helper()
	cat := catalog.Paper()
	addrs := startShards(t, cat, shards)
	c, err := coord.New(context.Background(), coord.Config{Catalog: cat, Addrs: addrs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, cat
}

// TestFrontendServesProtocol drives a protocol client against the
// coordinator's frontend: ping, a query whose result must be bit-identical
// to a direct coordinator call, a stats reply with the Coord section, and
// the typed refusals for set and partial.
func TestFrontendServesProtocol(t *testing.T) {
	c, _ := startCoordinator(t, 2)
	f, err := c.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })

	cl, err := server.Dial(context.Background(), f.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if err := cl.Ping(context.Background()); err != nil {
		t.Fatalf("ping: %v", err)
	}

	direct, _, err := c.Query(context.Background(), paperSQL)
	if err != nil {
		t.Fatal(err)
	}
	viaWire, meta, err := cl.Query(context.Background(), paperSQL)
	if err != nil {
		t.Fatalf("query via frontend: %v", err)
	}
	if !viaWire.EqualAsList(direct) {
		t.Errorf("wire result differs from direct coordinator result:\n%s\nvs\n%s", viaWire, direct)
	}
	if !meta.CacheHit { // the direct call populated the coordinator cache
		t.Error("second coordination of the same statement must hit the cache")
	}

	st, err := cl.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Coord == nil {
		t.Fatal("frontend stats must fill the Coord section")
	}
	if st.Coord.Shards != 2 {
		t.Errorf("shards = %d, want 2", st.Coord.Shards)
	}
	if st.Coord.Queries != 2 || st.Coord.CacheHits != 1 {
		t.Errorf("queries/hits = %d/%d, want 2/1", st.Coord.Queries, st.Coord.CacheHits)
	}
	if len(st.Coord.Fragments) == 0 {
		t.Error("fragment-kind counts missing")
	}
	if st.Coord.ShardCalls == 0 {
		t.Error("shard calls missing — a vacuous run proves nothing")
	}
	if st.UptimeSeconds <= 0 || st.Fingerprint == "" {
		t.Errorf("shared stats fields missing: %+v", st)
	}

	if err := cl.Set(context.Background(), "engine", "reference"); err == nil {
		t.Fatal("set must be refused by a coordinator")
	}

	// Errors classify like the server's: parse for garbage, plan for
	// unknown names.
	if _, _, err := cl.Query(context.Background(), "SELECT"); err == nil ||
		!strings.Contains(err.Error(), "[parse]") {
		t.Errorf("garbage statement error = %v, want a parse code", err)
	}
	if _, _, err := cl.Query(context.Background(), "SELECT x FROM NOWHERE"); err == nil ||
		!strings.Contains(err.Error(), "[plan]") {
		t.Errorf("unknown relation error = %v, want a plan code", err)
	}
}

// TestFrontendCloseDropsClients pins the frontend's close contract: the
// stats reply counts the open connections, Close drops connected clients
// and returns once their handlers have, and a second Close is harmless.
func TestFrontendCloseDropsClients(t *testing.T) {
	c, _ := startCoordinator(t, 1)
	f, err := c.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	ctx := context.Background()
	var cls [2]*server.Client
	for i := range cls {
		if cls[i], err = server.Dial(ctx, f.Addr()); err != nil {
			t.Fatal(err)
		}
		defer cls[i].Close()
	}
	if _, _, err := cls[0].Query(ctx, paperSQL); err != nil {
		t.Fatal(err)
	}
	// The query proved the first connection accepted; the stats round trip
	// proves the second.
	st, err := cls[1].Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Conns != 2 {
		t.Fatalf("stats reply counts %d connections, want 2", st.Conns)
	}

	closed := make(chan error, 1)
	go func() { closed <- f.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close never returned with clients connected")
	}
	for i, cl := range cls {
		if err := cl.Ping(ctx); err == nil {
			t.Errorf("client %d still answered after Close", i)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestFrontendSurvivesBadPayload pins the frontend to the server's framing
// contract: a well-framed but malformed JSON request gets a proto error
// and the connection keeps serving, since the frame was consumed whole.
func TestFrontendSurvivesBadPayload(t *testing.T) {
	c, _ := startCoordinator(t, 1)
	f, err := c.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	conn, err := net.Dial("tcp", f.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	garbage := []byte("this is not json")
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(garbage)))
	if _, err := conn.Write(append(hdr[:], garbage...)); err != nil {
		t.Fatal(err)
	}
	var resp server.Response
	if err := server.ReadFrame(conn, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Kind != server.KindError || resp.Err == nil || resp.Err.Code != server.CodeProto {
		t.Fatalf("bad payload: want a proto error, got %+v", resp)
	}
	if err := server.WriteFrame(conn, &server.Request{Op: server.OpPing}); err != nil {
		t.Fatal(err)
	}
	if err := server.ReadFrame(conn, &resp); err != nil || resp.Kind != server.KindPong {
		t.Fatalf("connection must survive a bad payload: %v %+v", err, resp)
	}
}

// TestCoordinatorMetrics registers the coordinator into a registry, runs a
// query, and asserts the scrape covers the coordinator families including
// the per-kind fragment counters.
func TestCoordinatorMetrics(t *testing.T) {
	c, _ := startCoordinator(t, 2)
	reg := obs.NewRegistry()
	c.RegisterMetrics(reg)
	addr, shutdown, err := obs.Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	if _, _, err := c.Query(context.Background(), paperSQL); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	out := string(body)
	for _, want := range []string{
		"tqp_coord_shards 2",
		"tqp_coord_queries_total 1",
		"tqp_coord_shard_calls_total",
		"tqp_coord_retries_total 0",
		`tqp_coord_fragments_total{kind="chain"}`,
		`tqp_coord_fragments_total{kind="sorted"}`,
		`tqp_coord_fragments_total{kind="grouped"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q:\n%s", want, out)
		}
	}
}

// TestFrontendSchemaFrameCarriesRowCount: the frontend's answer carries
// the done frame's tuple count in its schema frame, as a server's does.
func TestFrontendSchemaFrameCarriesRowCount(t *testing.T) {
	c, _ := startCoordinator(t, 2)
	f, err := c.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	conn, err := net.Dial("tcp", f.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := server.WriteFrame(conn, &server.Request{Op: server.OpQuery, SQL: paperSQL}); err != nil {
		t.Fatal(err)
	}
	rows := -1
	for {
		var resp server.Response
		if err := server.ReadFrame(conn, &resp); err != nil {
			t.Fatal(err)
		}
		switch resp.Kind {
		case server.KindSchema:
			rows = resp.Rows
		case server.KindRows:
		case server.KindDone:
			if resp.Done == nil || resp.Done.Tuples == 0 || rows != resp.Done.Tuples {
				t.Fatalf("schema frame says %d rows, done frame %+v", rows, resp.Done)
			}
			return
		default:
			t.Fatalf("unexpected %q frame: %+v", resp.Kind, resp)
		}
	}
}

// TestFrontendReusesEncodeBuffer pins one rows-frame encode buffer per
// frontend connection: the first answer grows it, and the second encodes
// into the same storage instead of growing a fresh one.
func TestFrontendReusesEncodeBuffer(t *testing.T) {
	c, _ := startCoordinator(t, 2)
	f, err := c.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	handle, block := f.Conn(io.Discard)
	query := &server.Request{Op: server.OpQuery, SQL: paperSQL}
	if err := handle(query); err != nil {
		t.Fatal(err)
	}
	if cap(*block) == 0 {
		t.Fatal("the first answer encoded no block into the connection's buffer")
	}
	first, size := &(*block)[:1][0], cap(*block)
	if err := handle(query); err != nil {
		t.Fatal(err)
	}
	if &(*block)[:1][0] != first || cap(*block) != size {
		t.Fatalf("the second answer grew a new block buffer (capacity %d → %d)", size, cap(*block))
	}
}
