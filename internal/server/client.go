package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"tqp/internal/column"
	"tqp/internal/relation"
	"tqp/internal/spill"
)

// Client is a synchronous connection to a Server: one request in flight at
// a time (guarded by a mutex, so a Client may be shared across goroutines —
// requests serialize). Each Client maps to one server session, so engine
// settings applied with Set stick to this connection.
//
// Every method takes a context.Context first: a deadline bounds the whole
// round trip (dial, request write, response reads) via connection
// deadlines, and cancellation interrupts blocked I/O. A context failure
// poisons the connection — frames may be half-read — so the Client is
// closed and every later call fails; redial to recover. So does a frame
// the client rejects as malformed, which may have more of its answer
// queued behind it; only an error frame the server sent leaves the
// connection usable.
type Client struct {
	mu     sync.Mutex
	conn   net.Conn
	br     *bufio.Reader
	bw     *bufio.Writer
	rbuf   []byte // rows frames' bytes, reused frame after frame
	broken error  // sticky: set when ctx interrupted mid-frame I/O
}

// Dial connects to a server at addr (host:port), honoring the context's
// deadline and cancellation for the connection attempt.
func Dial(ctx context.Context, addr string) (*Client, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("server: dial %s: %w", addr, err)
	}
	return &Client{conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}, nil
}

// Close closes the connection (and with it the server-side session).
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.conn.Close()
}

// QueryMeta is the provenance a completed query carries back.
type QueryMeta struct {
	// CacheHit reports whether the server served a cached physical plan.
	CacheHit bool
	// Plans and BestCost record the (possibly cached) preparation.
	Plans    int
	BestCost float64
	// TuplesTransferred counts stratum/DBMS boundary crossings server-side.
	TuplesTransferred int
	// Engine names the engine spec the query ran on.
	Engine string
}

// begin arms the connection with the context's deadline and a watcher that
// interrupts blocked I/O on cancellation. It returns the matching end func;
// callers hold c.mu for the whole begin/end span.
func (c *Client) begin(ctx context.Context) (end func(), err error) {
	if c.broken != nil {
		return nil, c.broken
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if d, ok := ctx.Deadline(); ok {
		c.conn.SetDeadline(d)
	} else {
		c.conn.SetDeadline(time.Time{})
	}
	stop, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		select {
		case <-ctx.Done():
			// Unblock any in-flight read/write; finish translates the
			// resulting I/O error back into ctx.Err().
			c.conn.SetDeadline(time.Now())
		case <-stop:
		}
	}()
	return func() {
		// A caller that cancels ctx as the call returns makes both cases
		// ready; the deadline is cleared only once the watcher can no
		// longer set it, or the next request would inherit "now".
		close(stop)
		<-exited
		c.conn.SetDeadline(time.Time{})
	}, nil
}

// finish maps an I/O error caused by a context interruption back to the
// context's error and marks the connection broken: the frame stream may
// have been cut mid-message, so no later request can trust it.
func (c *Client) finish(ctx context.Context, err error) error {
	if err == nil {
		return nil
	}
	if ctxErr := ctx.Err(); ctxErr != nil {
		err = fmt.Errorf("server: request interrupted: %w", ctxErr)
	}
	c.broken = err
	c.conn.Close()
	return err
}

// send writes one request frame and flushes it; callers hold c.mu.
func (c *Client) send(req *Request) error {
	if err := WriteFrame(c.bw, req); err != nil {
		return err
	}
	return c.bw.Flush()
}

// fail ends a request that did not complete; callers hold c.mu. Only an
// error frame the server sent leaves the stream intact — the server ends a
// failed request with it — so that *ServerError comes back and the
// connection serves on. Every other failure marks the connection broken,
// because the rest of the answer may still be queued on the socket: an
// I/O error, a context interruption, and a frame the client itself
// rejected as malformed, which still comes back as its typed proto error.
// The sticky error a later call gets is never a *ServerError, so a caller
// that redials on connection failures does.
func (c *Client) fail(ctx context.Context, err error) error {
	var sent *errorFrame
	if errors.As(err, &sent) {
		return sent.ServerError
	}
	if se, ok := err.(*ServerError); ok {
		c.finish(ctx, fmt.Errorf("server: connection dropped after a malformed frame: %s", se.Msg))
		return se
	}
	return c.finish(ctx, err)
}

// errorFrame is the error a server sent in an error frame, as read returns
// it, so fail can tell it from a failure the client raised.
type errorFrame struct{ *ServerError }

// read reads one response frame; callers hold c.mu. A rows frame's Block
// is the client's read buffer, valid until the next read. A frame that
// arrived whole but is malformed is a typed proto error.
func (c *Client) read() (*Response, error) {
	resp := Response{Block: c.rbuf[:0]}
	if err := ReadFrame(c.br, &resp); err != nil {
		if errors.Is(err, errBadPayload) {
			return nil, protoErr(err)
		}
		return nil, err
	}
	if resp.Kind == KindRows {
		c.rbuf = resp.Block
	}
	if resp.Kind == KindError {
		if resp.Err == nil {
			return nil, protoErr(fmt.Errorf("server: error response without payload"))
		}
		return nil, &errorFrame{&ServerError{Code: resp.Err.Code, Msg: resp.Err.Msg}}
	}
	return &resp, nil
}

// Query runs one statement and materializes the result relation (with its
// delivered order annotation) plus the execution provenance. Server-side
// failures come back as *ServerError with the wire code preserved, so
// callers can branch on admission rejections versus statement errors; a
// context deadline/cancellation surfaces as the context's error.
func (c *Client) Query(ctx context.Context, sql string) (*relation.Relation, *QueryMeta, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	end, err := c.begin(ctx)
	if err != nil {
		return nil, nil, err
	}
	defer end()
	rel, meta, _, err := c.query(&Request{Op: OpQuery, SQL: sql})
	if err != nil {
		return nil, nil, c.fail(ctx, err)
	}
	return rel, meta, nil
}

// maxHintCells bounds what a schema frame's row-count hint may presize:
// the client sizes its column planes (and its sequence keys, on a keyed
// answer) for at most this many cells in all, 16 MiB at the widest plane
// cell. A hint comes from a peer, so a lying one costs at most that; rows
// past it grow the planes as they arrive.
const maxHintCells = 1 << 20

// query runs one result-streaming request (OpQuery or OpPartial); callers
// hold c.mu with the connection armed. keys holds the rows' sequence keys
// when the schema frame says they are provenance (a keyed partial plan),
// and is nil otherwise.
func (c *Client) query(req *Request) (*relation.Relation, *QueryMeta, []int, error) {
	if err := c.send(req); err != nil {
		return nil, nil, nil, err
	}
	head, err := c.read()
	if err != nil {
		return nil, nil, nil, err
	}
	if head.Kind == KindOK {
		// A SET statement routed through Query: no result set.
		return nil, &QueryMeta{}, nil, nil
	}
	if head.Kind != KindSchema {
		return nil, nil, nil, protoErr(fmt.Errorf("server: expected schema frame, got %q", head.Kind))
	}
	sch, err := schemaOf(head.Cols)
	if err != nil {
		return nil, nil, nil, protoErr(err)
	}
	// The hint sizes the planes once; the done frame still checks the
	// count, and rows past the hint grow the planes as they arrive.
	width := sch.Len()
	if head.Keyed {
		width++
	}
	rows := max(0, min(head.Rows, maxHintCells/max(width, 1)))
	b := column.NewBatch(sch, rows)
	var keys []int
	if head.Keyed {
		keys = make([]int, 0, rows)
	}
	for {
		resp, err := c.read()
		if err != nil {
			return nil, nil, nil, err
		}
		switch resp.Kind {
		case KindRows:
			if keys, err = decodeBlockFrame(resp, b, keys); err != nil {
				return nil, nil, nil, err
			}
		case KindDone:
			if resp.Done == nil {
				return nil, nil, nil, protoErr(fmt.Errorf("server: done frame without payload"))
			}
			if resp.Done.Tuples != b.Rows() {
				return nil, nil, nil, protoErr(fmt.Errorf("server: done frame claims %d tuples, received %d", resp.Done.Tuples, b.Rows()))
			}
			rel := relation.FromColumnar(sch, b)
			rel.SetOrder(orderSpecOf(head.Order))
			return rel, &QueryMeta{
				CacheHit:          resp.Done.CacheHit,
				Plans:             resp.Done.Plans,
				BestCost:          resp.Done.BestCost,
				TuplesTransferred: resp.Done.TuplesTransferred,
				Engine:            resp.Done.Engine,
			}, keys, nil
		default:
			return nil, nil, nil, protoErr(fmt.Errorf("server: unexpected frame %q inside a result stream", resp.Kind))
		}
	}
}

// decodeBlockFrame appends a rows frame's rows, decoded in place against
// b's schema, to b, and their sequence keys to keys unless keys is nil. A
// missing, torn, corrupt or schema-confused block, or bytes past it, is a
// typed proto error.
func decodeBlockFrame(resp *Response, b *column.Batch, keys []int) ([]int, error) {
	if len(resp.Block) == 0 {
		return keys, protoErr(fmt.Errorf("server: rows frame without a block"))
	}
	keys, err := spill.DecodeBlock(resp.Block, b, keys)
	if err != nil {
		return keys, protoErr(fmt.Errorf("server: rows frame: %w", err))
	}
	return keys, nil
}

// Partial runs one partial plan on the server's catalog shard and returns
// the fragment's rows plus their global sequence keys — nil exactly when
// the fragment carries none (a group operation consumed its per-tuple
// provenance), and non-nil even for an empty answer otherwise. This is the
// coordinator's workhorse; see WirePlan for the fragment grammar.
func (c *Client) Partial(ctx context.Context, plan *WirePlan) (*relation.Relation, []int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	end, err := c.begin(ctx)
	if err != nil {
		return nil, nil, err
	}
	defer end()
	rel, _, keys, err := c.query(&Request{Op: OpPartial, Plan: plan})
	if err != nil {
		return nil, nil, c.fail(ctx, err)
	}
	return rel, keys, nil
}

// Set updates one session setting (engine, parallel, mem).
func (c *Client) Set(ctx context.Context, name, val string) error {
	return c.roundTrip(ctx, &Request{Op: OpSet, Name: name, Value: val}, KindOK, nil)
}

// Stats fetches the server's cache and admission statistics.
func (c *Client) Stats(ctx context.Context) (*StatsReply, error) {
	var stats *StatsReply
	err := c.roundTrip(ctx, &Request{Op: OpStats}, KindStats, func(resp *Response) error {
		if resp.Stats == nil {
			return fmt.Errorf("server: stats frame without payload")
		}
		stats = resp.Stats
		return nil
	})
	return stats, err
}

// Ping round-trips a connectivity check.
func (c *Client) Ping(ctx context.Context) error {
	return c.roundTrip(ctx, &Request{Op: OpPing}, KindPong, nil)
}

// roundTrip runs one single-frame request/response exchange.
func (c *Client) roundTrip(ctx context.Context, req *Request, want string, accept func(*Response) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	end, err := c.begin(ctx)
	if err != nil {
		return err
	}
	defer end()
	exchange := func() error {
		if err := c.send(req); err != nil {
			return err
		}
		resp, err := c.read()
		if err != nil {
			return err
		}
		if resp.Kind != want {
			return protoErr(fmt.Errorf("server: expected %s frame, got %q", want, resp.Kind))
		}
		if accept != nil {
			return accept(resp)
		}
		return nil
	}
	if err := exchange(); err != nil {
		return c.fail(ctx, err)
	}
	return nil
}
