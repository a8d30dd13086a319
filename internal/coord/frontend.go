package coord

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"tqp/internal/server"
)

// Frontend serves the coordinator over the wire protocol, so any protocol
// client — tqshell, server.Dial — can point at a coordinator exactly as it
// would at a single server. It answers the query, ping and stats
// operations; per-session settings (set, SET statements) and partial plans
// are refused with typed errors, because a coordinator's engine spec is
// fixed at construction and it is the one *sending* partial plans. Its
// connections live on a server.Listener, the server's own lifecycle.
type Frontend struct {
	c     *Coordinator
	lis   *server.Listener
	start time.Time
}

// Serve starts a protocol frontend for the coordinator on addr (use an
// ":0" port for ephemeral; read it back with Addr). The caller owns Close,
// and must close the frontend before closing the coordinator.
func (c *Coordinator) Serve(addr string) (*Frontend, error) {
	lis, err := server.Listen(addr)
	if err != nil {
		return nil, err
	}
	f := &Frontend{c: c, lis: lis, start: time.Now()}
	lis.Serve(func(w io.Writer) func(*server.Request) error { return (&conn{f: f, w: w}).handle })
	return f, nil
}

// conn is one frontend connection: its writer and its rows-frame encode
// buffer, which every answer encodes its blocks into and which keeps the
// largest block's capacity for the connection's next answer, as a server
// session's does.
type conn struct {
	f     *Frontend
	w     io.Writer
	block []byte
}

// Addr returns the frontend's bound listen address.
func (f *Frontend) Addr() string { return f.lis.Addr() }

// Close stops accepting, drops open connections and returns once every
// handler has: a handler that outlived it would run against a coordinator
// whose Close has dropped its shard clients.
func (f *Frontend) Close() error {
	err := f.lis.StopAccepting()
	f.lis.CloseConns(0)
	return err
}

func (cn *conn) handle(req *server.Request) error {
	f, w := cn.f, cn.w
	switch req.Op {
	case server.OpPing:
		return server.WriteFrame(w, &server.Response{Kind: server.KindPong})
	case server.OpStats:
		return server.WriteFrame(w, &server.Response{Kind: server.KindStats, Stats: f.statsReply()})
	case server.OpQuery:
		return cn.runQuery(req.SQL)
	case server.OpSet:
		return server.WriteError(w, server.CodeSet,
			errors.New("coord: session settings are fixed per coordinator"))
	case server.OpPartial:
		return server.WriteError(w, server.CodeProto,
			errors.New("coord: partial plans are not accepted by a coordinator"))
	default:
		return server.WriteError(w, server.CodeProto, fmt.Errorf("coord: unknown op %q", req.Op))
	}
}

// statsReply renders the coordinator's state in the server's stats shape:
// the shared fields a client renders for any endpoint plus the Coord
// section only a coordinator fills.
func (f *Frontend) statsReply() *server.StatsReply {
	st := f.c.Stats()
	return &server.StatsReply{
		Cache:         f.c.cache.Stats(),
		Conns:         f.lis.Conns(),
		Fingerprint:   f.c.fp,
		UptimeSeconds: time.Since(f.start).Seconds(),
		Queries:       st.Queries,
		Coord:         &st,
	}
}

// runQuery plans and executes one statement through the coordinator and
// streams the gathered result back in protocol frames.
func (cn *conn) runQuery(sql string) error {
	f, w := cn.f, cn.w
	result, meta, err := f.c.Query(context.Background(), sql)
	if err != nil {
		// Classify as the server does; a shard's execution failure is an
		// exec error.
		code := server.CodeExec
		var se *ShardError
		if !errors.As(err, &se) {
			code = server.PrepareCode(f.c.opt, sql)
		}
		return server.WriteError(w, code, err)
	}
	return server.StreamResultInto(w, result, server.ResultBatchRows, &server.Done{
		Tuples:   result.Len(),
		Plans:    meta.Plans,
		CacheHit: meta.CacheHit,
		BestCost: meta.BestCost,
		Engine:   f.c.cfg.Spec.Name,
	}, &cn.block)
}
