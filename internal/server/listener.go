package server

import (
	"bufio"
	"errors"
	"io"
	"net"
	"sync"
	"time"
)

// ResultBatchRows is how many rows one rows frame of a result carries.
const ResultBatchRows = 256

// writeTimeout bounds each network write to a client. A peer that stops
// reading stalls its connection's writes, and this deadline is what
// unsticks the handler (admission slots are already safe: they release
// before result streaming begins).
const writeTimeout = 30 * time.Second

// Listener is the wire protocol's one connection lifecycle: it binds an
// address, serves every accepted connection through serveRequests behind a
// write deadline, counts the open connections, and closes them. The server
// and the coordinator's frontend both serve through one, so they keep one
// framing, deadline and close contract.
type Listener struct {
	ln net.Listener

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]bool

	accept   sync.WaitGroup // the accept loop
	handlers sync.WaitGroup // connection handler goroutines
}

// Listen binds addr (use an ":0" port for ephemeral; read it back with
// Addr). Nothing is accepted until Serve.
func Listen(addr string) (*Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Listener{ln: ln, conns: make(map[net.Conn]bool)}, nil
}

// Serve starts accepting. open runs once per connection with the writer
// its answers go to and returns the connection's request handler (see
// serveRequests); a nil handler drops the connection.
func (l *Listener) Serve(open func(w io.Writer) func(*Request) error) {
	l.accept.Add(1)
	go l.acceptLoop(open)
}

// Addr returns the bound listen address (host:port).
func (l *Listener) Addr() string { return l.ln.Addr().String() }

// Conns counts the open connections.
func (l *Listener) Conns() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.conns)
}

// StopAccepting closes the listening socket and waits for the accept loop
// to exit; open connections keep being served. Later calls return nil.
func (l *Listener) StopAccepting() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	err := l.ln.Close()
	l.accept.Wait()
	return err
}

// CloseConns closes every open connection and waits for their handlers to
// return: at most wait when wait > 0, for as long as they take otherwise.
// Call it after StopAccepting, so no connection arrives behind it.
func (l *Listener) CloseConns(wait time.Duration) {
	l.mu.Lock()
	for c := range l.conns {
		c.Close()
	}
	l.mu.Unlock()
	if wait > 0 {
		waitTimeout(&l.handlers, wait)
		return
	}
	l.handlers.Wait()
}

func (l *Listener) acceptLoop(open func(w io.Writer) func(*Request) error) {
	defer l.accept.Done()
	for {
		conn, err := l.ln.Accept()
		if err != nil {
			return // listener closed
		}
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			conn.Close()
			return
		}
		l.conns[conn] = true
		l.mu.Unlock()
		l.handlers.Add(1)
		go l.handleConn(conn, open)
	}
}

func (l *Listener) dropConn(conn net.Conn) {
	l.mu.Lock()
	delete(l.conns, conn)
	l.mu.Unlock()
	conn.Close()
}

// handleConn serves one connection: its handler from open, then the
// request loop.
func (l *Listener) handleConn(conn net.Conn, open func(w io.Writer) func(*Request) error) {
	defer l.handlers.Done()
	defer l.dropConn(conn)

	bw := bufio.NewWriter(deadlineWriter{conn: conn, timeout: writeTimeout})
	if handle := open(bw); handle != nil {
		serveRequests(bufio.NewReader(conn), bw, handle)
	}
}

// serveRequests runs one connection's request loop: it reads request
// frames from r, hands each to handle, which writes its answer to bw, and
// flushes bw after every answer. A well-framed request whose payload does
// not decode is answered with a proto error and the loop goes on, since
// the frame was consumed whole; a hangup, a framing error or a failed
// write ends it.
func serveRequests(r io.Reader, bw *bufio.Writer, handle func(*Request) error) {
	for {
		var req Request
		err := ReadFrame(r, &req)
		switch {
		case errors.Is(err, errBadPayload):
			err = WriteError(bw, CodeProto, err)
		case err != nil:
			return
		default:
			err = handle(&req)
		}
		if err != nil || bw.Flush() != nil {
			return
		}
	}
}

// deadlineWriter arms a fresh write deadline before every underlying
// write, so a peer that stops reading errors the handler out within
// timeout instead of blocking it forever. Per-write (not per-response)
// granularity: a large result to a slow-but-reading client keeps making
// progress, only a genuine stall trips the deadline.
type deadlineWriter struct {
	conn    net.Conn
	timeout time.Duration
}

func (w deadlineWriter) Write(p []byte) (int, error) {
	if err := w.conn.SetWriteDeadline(time.Now().Add(w.timeout)); err != nil {
		return 0, err
	}
	return w.conn.Write(p)
}
