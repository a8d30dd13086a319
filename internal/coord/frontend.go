package coord

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"tqp/internal/server"
)

// Frontend serves the coordinator over the wire protocol, so any protocol
// client — tqshell, server.Dial — can point at a coordinator exactly as it
// would at a single server. It answers the query, ping and stats
// operations; per-session settings (set, SET statements) and partial plans
// are refused with typed errors, because a coordinator's engine spec is
// fixed at construction and it is the one *sending* partial plans.
type Frontend struct {
	c     *Coordinator
	ln    net.Listener
	start time.Time

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]bool

	accept   sync.WaitGroup
	handlers sync.WaitGroup
}

// frontendWriteTimeout arms each network write to a frontend client, so a
// peer that stops reading cannot stall a handler forever.
const frontendWriteTimeout = 30 * time.Second

// frontendBatchRows is the frontend's result-streaming batch size,
// matching the server default.
const frontendBatchRows = 256

// Serve starts a protocol frontend for the coordinator on addr (use an
// ":0" port for ephemeral; read it back with Addr). The caller owns Close,
// and must close the frontend before closing the coordinator.
func (c *Coordinator) Serve(addr string) (*Frontend, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	f := &Frontend{c: c, ln: ln, start: time.Now(), conns: make(map[net.Conn]bool)}
	f.accept.Add(1)
	go f.acceptLoop()
	return f, nil
}

// Addr returns the frontend's bound listen address.
func (f *Frontend) Addr() string { return f.ln.Addr().String() }

// Close stops accepting, drops open connections and waits for handlers.
func (f *Frontend) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	conns := make([]net.Conn, 0, len(f.conns))
	for conn := range f.conns {
		conns = append(conns, conn)
	}
	f.mu.Unlock()
	err := f.ln.Close()
	for _, conn := range conns {
		conn.Close()
	}
	f.accept.Wait()
	f.handlers.Wait()
	return err
}

func (f *Frontend) acceptLoop() {
	defer f.accept.Done()
	for {
		conn, err := f.ln.Accept()
		if err != nil {
			return // listener closed
		}
		f.mu.Lock()
		if f.closed {
			f.mu.Unlock()
			conn.Close()
			return
		}
		f.conns[conn] = true
		f.mu.Unlock()
		f.handlers.Add(1)
		go f.handleConn(conn)
	}
}

func (f *Frontend) dropConn(conn net.Conn) {
	f.mu.Lock()
	delete(f.conns, conn)
	f.mu.Unlock()
	conn.Close()
}

func (f *Frontend) handleConn(conn net.Conn) {
	defer f.handlers.Done()
	defer f.dropConn(conn)

	bw := bufio.NewWriter(frontWriter{conn: conn})
	server.ServeRequests(bufio.NewReader(conn), bw, func(req *server.Request) error {
		return f.handleRequest(req, bw)
	})
}

// frontWriter arms a fresh write deadline before each underlying write.
type frontWriter struct {
	conn net.Conn
}

func (w frontWriter) Write(p []byte) (int, error) {
	if err := w.conn.SetWriteDeadline(time.Now().Add(frontendWriteTimeout)); err != nil {
		return 0, err
	}
	return w.conn.Write(p)
}

func (f *Frontend) handleRequest(req *server.Request, w io.Writer) error {
	switch req.Op {
	case server.OpPing:
		return server.WriteFrame(w, &server.Response{Kind: server.KindPong})
	case server.OpStats:
		return server.WriteFrame(w, &server.Response{Kind: server.KindStats, Stats: f.statsReply()})
	case server.OpQuery:
		return f.runQuery(req.SQL, w)
	case server.OpSet:
		return writeError(w, server.CodeSet,
			errors.New("coord: session settings are fixed per coordinator"))
	case server.OpPartial:
		return writeError(w, server.CodeProto,
			errors.New("coord: partial plans are not accepted by a coordinator"))
	default:
		return writeError(w, server.CodeProto, fmt.Errorf("coord: unknown op %q", req.Op))
	}
}

// statsReply renders the coordinator's state in the server's stats shape:
// the shared fields a client renders for any endpoint plus the Coord
// section only a coordinator fills.
func (f *Frontend) statsReply() *server.StatsReply {
	st := f.c.Stats()
	f.mu.Lock()
	conns := len(f.conns)
	f.mu.Unlock()
	return &server.StatsReply{
		Cache:         f.c.cache.Stats(),
		Conns:         conns,
		Fingerprint:   f.c.fp,
		UptimeSeconds: time.Since(f.start).Seconds(),
		Queries:       int64(st.Queries),
		Coord:         f.c.wireStats(),
	}
}

// runQuery plans and executes one statement through the coordinator and
// streams the gathered result back in protocol frames.
func (f *Frontend) runQuery(sql string, w io.Writer) error {
	result, meta, err := f.c.Query(context.Background(), sql)
	if err != nil {
		// Classify exactly as the server does: unparsable → parse; shard
		// execution failures → exec; everything between → plan.
		code := server.CodePlan
		var se *ShardError
		if errors.As(err, &se) {
			code = server.CodeExec
		} else if _, perr := f.c.opt.Parse(sql); perr != nil {
			code = server.CodeParse
		}
		return writeError(w, code, err)
	}
	return server.StreamResult(w, result, frontendBatchRows, &server.Done{
		Tuples:   result.Len(),
		Plans:    meta.Plans,
		CacheHit: meta.CacheHit,
		BestCost: meta.BestCost,
		Engine:   f.c.cfg.Spec.Name,
	})
}

// writeError writes one typed error frame.
func writeError(w io.Writer, code string, err error) error {
	return server.WriteFrame(w, &server.Response{
		Kind: server.KindError,
		Err:  &server.WireError{Code: code, Msg: err.Error()},
	})
}
