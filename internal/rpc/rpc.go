// Package rpc is the network substrate of LambdaStore: a compact
// length-framed request/response protocol over TCP with per-connection
// multiplexing (many in-flight requests may share one connection; a Pool
// opens one per concurrent caller, up to GOMAXPROCS), per-call timeouts,
// and an injectable artificial delay used by the benchmark harness to
// emulate LAN/WAN round-trip times on loopback. It is also the
// network's one fault seam: internal/fault decides each call (and each dial)
// once, as a message from the caller's pool label to the peer.
//
// In the paper's architecture this carries client→node invocations,
// compute→storage accesses in the disaggregated baseline, primary→backup
// replication, and the Paxos coordination traffic.
package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"lambdastore/internal/fault"
	"lambdastore/internal/gopool"
	"lambdastore/internal/telemetry"
	"lambdastore/internal/wire"
)

// Errors returned by clients and servers.
var (
	ErrClosed   = errors.New("rpc: connection closed")
	ErrTimeout  = errors.New("rpc: call timed out")
	ErrNoMethod = errors.New("rpc: no such method")
)

// maxFrame bounds a single message to protect against corrupt peers.
const maxFrame = 64 << 20

// message types.
const (
	msgRequest  = 1
	msgResponse = 2
)

// RemoteError is an application error propagated from the server; the
// method handler's error string survives the wire.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return "rpc: remote: " + e.Msg }

// message is the wire unit. Requests additionally carry the caller's trace
// context (zero when untraced) so spans recorded on different nodes link
// into one distributed trace.
type message struct {
	kind   byte
	id     uint64
	trace  uint64 // requests only: trace the call belongs to
	parent uint64 // requests only: caller's span, parent of callee spans
	method string // requests only, outbound (decode returns an inbound name)
	errStr string // responses only
	body   []byte
}

func (m *message) encode(dst []byte) []byte {
	dst = append(dst, m.kind)
	dst = wire.AppendUvarint(dst, m.id)
	dst = wire.AppendUvarint(dst, m.trace)
	dst = wire.AppendUvarint(dst, m.parent)
	dst = wire.AppendString(dst, m.method)
	dst = wire.AppendString(dst, m.errStr)
	dst = wire.AppendBytes(dst, m.body)
	return dst
}

// decode fills m from b in place and returns a request's method name. The
// name and the body alias b; only an error string (a response's failure
// path) is copied out.
func (m *message) decode(b []byte) (name []byte, err error) {
	r := wire.NewReader(b)
	m.kind, m.id, m.trace, m.parent = r.Byte(), r.Uvarint(), r.Uvarint(), r.Uvarint()
	name = r.Bytes()
	m.errStr, m.body = r.Str(), r.Bytes()
	return name, r.ErrIn("rpc: message")
}

// inFrame is one received frame, decoded in place into the buffer it keeps
// from frame to frame: the body and a request's method name alias buf until
// the next read. buf holds what was read from the connection: the frame,
// length prefix included, at buf[off:off+size], then any bytes read past
// it, which are the start of the connection's next frame.
//
// A server's request frame also carries what its handler goroutine needs —
// the handler and the connection — so the task is handed over as f.run:
// run is f.handle, bound once when the pool makes the frame, so handing it
// to gopool.Go allocates nothing. out is the reply scratch it lends the
// handler (CallInfo.Reply), kept from request to request like buf.
type inFrame struct {
	msg       message
	name      []byte
	buf       []byte
	off, size int

	h    HandlerCtx
	conn *serverConn
	run  func()
	out  []byte
}

// inFrames recycles a server's request frames, buffers and bound run
// included.
var inFrames sync.Pool

// getInFrame takes a request frame from inFrames, or makes one and binds
// its run.
func getInFrame() *inFrame {
	if f, ok := inFrames.Get().(*inFrame); ok {
		return f
	}
	f := new(inFrame)
	f.run = f.handle
	return f
}

// maxPooledFrame bounds the buffer a frame keeps, so one huge
// state-transfer frame does not pin megabytes in every pool shard or
// client connection.
const maxPooledFrame = 1 << 20

// minFrameBuf is the buffer a frame that has none reads into: room for a
// whole invocation request or small reply, so a first read of one takes a
// single Read. A larger frame grows the buffer to its own size.
const minFrameBuf = 512

// read receives the connection's next frame and decodes it in place. Bytes
// already read past the previous frame are this frame's start; read asks r
// only for the rest, into all of buf's spare room, so a frame that arrived
// whole costs one Read and what arrived behind it stays in buf for the next
// read.
func (f *inFrame) read(r io.Reader) error {
	f.off += f.size
	f.size = 0
	if f.off == len(f.buf) {
		f.off, f.buf = 0, f.buf[:0]
	}
	need := 4
	var rerr error
	for {
		have := len(f.buf) - f.off
		if have >= 4 {
			n := binary.BigEndian.Uint32(f.buf[f.off:])
			if n > maxFrame {
				return fmt.Errorf("rpc: frame of %d bytes exceeds limit", n)
			}
			need = 4 + int(n)
			if have >= need {
				break
			}
		}
		if rerr != nil {
			if rerr == io.EOF && have > 0 {
				rerr = io.ErrUnexpectedEOF
			}
			return rerr
		}
		if f.off+need > cap(f.buf) {
			f.makeRoom(need)
		}
		m, err := r.Read(f.buf[len(f.buf):cap(f.buf)])
		f.buf, rerr = f.buf[:len(f.buf)+m], err
	}
	f.size = need
	var err error
	f.name, err = f.msg.decode(f.buf[f.off+4 : f.off+need])
	return err
}

// makeRoom moves the partial frame at buf[off:] to the front of a buffer
// that holds need bytes: buf itself if it is large enough, else a new one.
func (f *inFrame) makeRoom(need int) {
	held := f.buf[f.off:]
	if need > cap(f.buf) {
		f.buf = make([]byte, 0, max(need, minFrameBuf))
	}
	f.buf = f.buf[:copy(f.buf[:cap(f.buf)], held)]
	f.off = 0
}

// handOff gives the bytes read past f's frame to next, the frame the
// connection reads into next: next takes over f's buffer with those bytes in
// place, and f's frame is copied into next's old buffer and decoded there.
// A read that brought several frames so copies each of them once; one that
// brought only f's copies nothing.
func (f *inFrame) handOff(next *inFrame) {
	end := f.off + f.size
	if end == len(f.buf) {
		return
	}
	own := next.buf[:0]
	if cap(own) < max(f.size, minFrameBuf) {
		own = make([]byte, 0, max(f.size, minFrameBuf))
	}
	own = append(own, f.buf[f.off:end]...)
	next.buf, next.off, next.size = f.buf, end, 0
	f.buf, f.off = own, 0
	f.name, _ = f.msg.decode(own[4:]) // decoded once already: cannot fail
}

// recycle returns a server's request frame to inFrames; nothing may use its
// body, its name or a reply built in out afterwards.
func (f *inFrame) recycle() {
	if cap(f.buf) > maxPooledFrame {
		f.buf = nil
	}
	if cap(f.out) > maxPooledFrame {
		f.out = nil
	}
	f.buf, f.off, f.size, f.out = f.buf[:0], 0, 0, f.out[:0]
	f.msg.body, f.name = nil, nil
	f.h, f.conn = nil, nil
	inFrames.Put(f)
}

// reply is a response frame's outcome for its caller. A body is copied into
// a slice the caller owns, so the buffer serves the next frame, except from
// a frame too large to keep: that buffer is handed over as it is, and the
// bytes read past the frame move to a buffer of their own.
func (f *inFrame) reply() ([]byte, error) {
	m := &f.msg
	switch {
	case m.errStr == ErrClosed.Error():
		return nil, ErrClosed
	case m.errStr != "":
		return nil, &RemoteError{Msg: m.errStr}
	case cap(f.buf) > maxPooledFrame:
		f.buf = append([]byte(nil), f.buf[f.off+f.size:]...)
		f.off, f.size = 0, 0
		return m.body, nil
	case len(m.body) == 0:
		return nil, nil
	}
	return append([]byte(nil), m.body...), nil
}

// connWriter serializes outbound frames on one connection. Concurrent
// writers append their encoded frames to a shared buffer and the first
// writer becomes the flusher: it repeatedly swaps the pending buffer out
// and issues one conn.Write for everything queued, so N concurrent frames
// cost one syscall instead of N (a write outside the lock is safe only
// because there is a single flusher: net.Conn loops on partial writes and
// an interleaved writer would tear frames). Riders
// return immediately; a failed flush poisons the writer and closes the
// connection, which surfaces the failure to riders through the reader side
// (failAll on clients, conn teardown on servers).
type connWriter struct {
	conn net.Conn

	mu       sync.Mutex
	buf      []byte // pending encoded frames
	spare    []byte // ping-pong buffer reused by the flusher
	flushing bool
	err      error

	// coalesced counts frames that rode an existing flush instead of
	// paying their own Write ("rpc.frames_coalesced").
	coalesced *telemetry.Counter
}

// writeMsg encodes and sends m. A nil return may mean the frame is queued
// behind an active flusher and will reach the wire (or the connection will
// die trying).
func (w *connWriter) writeMsg(m *message) error {
	w.mu.Lock()
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return err
	}
	// Append one length-prefixed frame: 4-byte placeholder, encode, patch.
	off := len(w.buf)
	w.buf = append(w.buf, 0, 0, 0, 0)
	w.buf = m.encode(w.buf)
	binary.BigEndian.PutUint32(w.buf[off:], uint32(len(w.buf)-off-4))

	if w.flushing {
		// An active flusher will pick this frame up on its next round.
		w.coalesced.Inc()
		w.mu.Unlock()
		return nil
	}
	w.flushing = true
	for len(w.buf) > 0 && w.err == nil {
		buf := w.buf
		w.buf = w.spare[:0]
		w.spare = nil
		w.mu.Unlock()
		_, err := w.conn.Write(buf)
		w.mu.Lock()
		w.spare = buf[:0]
		if err != nil {
			w.err = err
		}
	}
	w.flushing = false
	err := w.err
	w.mu.Unlock()
	if err != nil {
		// Riders already returned nil for frames in the failed flush; kill
		// the connection so the reader side fails their calls.
		w.conn.Close()
	}
	return err
}

// Handler serves one method. The returned bytes become the response body;
// a non-nil error is sent to the caller as a RemoteError.
type Handler func(body []byte) ([]byte, error)

// CallInfo carries per-request metadata into a handler: the caller's trace
// context, restored from the request frame, and scratch for the reply.
type CallInfo struct {
	Trace telemetry.SpanContext
	// Reply is empty memory the request's frame owns. A handler may build
	// its reply in it, growing *Reply as append does, and return it; once
	// the reply is written the frame keeps whatever *Reply then holds for
	// its next request. So a handler stores into *Reply only memory it grew
	// from it, never bytes it does not own.
	Reply *[]byte
}

// HandlerCtx is a Handler that also receives the request's CallInfo.
type HandlerCtx func(info CallInfo, body []byte) ([]byte, error)

// serverMetrics holds a server's pre-resolved instruments. They always
// exist; until SetTelemetry they belong to no registry.
type serverMetrics struct {
	requests  *telemetry.Counter
	inFlight  *telemetry.Gauge
	rxBytes   *telemetry.Counter
	txBytes   *telemetry.Counter
	handleUs  *telemetry.Histogram
	coalesced *telemetry.Counter
}

func newServerMetrics(reg *telemetry.Registry) *serverMetrics {
	return &serverMetrics{
		requests:  reg.Counter("rpc.server.requests"),
		inFlight:  reg.Gauge("rpc.server.in_flight"),
		rxBytes:   reg.Counter("rpc.server.rx_bytes"),
		txBytes:   reg.Counter("rpc.server.tx_bytes"),
		handleUs:  reg.Histogram("rpc.server.handle"),
		coalesced: reg.Counter("rpc.frames_coalesced"),
	}
}

// Server accepts connections and dispatches requests to registered
// handlers. Each request runs on a goroutine of its own — a parked worker's
// from internal/gopool, which keeps the stack an earlier request grew, or
// a new one's — so slow handlers do not head-of-line block the connection.
type Server struct {
	mu       sync.RWMutex
	handlers map[string]HandlerCtx
	ln       net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup

	metrics *serverMetrics
}

// NewServer returns a server with no handlers.
func NewServer() *Server {
	return &Server{
		handlers: make(map[string]HandlerCtx),
		conns:    make(map[net.Conn]struct{}),
		metrics:  newServerMetrics(nil),
	}
}

// SetTelemetry publishes the server's hot-path instruments in reg: requests,
// in-flight requests, and bytes on the wire. Call before Serve.
func (s *Server) SetTelemetry(reg *telemetry.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.metrics = newServerMetrics(reg)
}

// Handle registers fn for method, replacing any existing registration.
func (s *Server) Handle(method string, fn Handler) {
	s.HandleCtx(method, func(_ CallInfo, body []byte) ([]byte, error) { return fn(body) })
}

// HandleCtx registers a context-aware handler for method.
func (s *Server) HandleCtx(method string, fn HandlerCtx) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[method] = fn
}

// Serve starts accepting on addr ("host:port", empty port for ephemeral)
// and returns the bound address. Serving continues until Close.
func (s *Server) Serve(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("rpc: listen: %w", err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return "", ErrClosed
	}
	s.ln = ln
	s.mu.Unlock()

	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			if s.closed {
				s.mu.Unlock()
				conn.Close()
				return
			}
			s.conns[conn] = struct{}{}
			s.mu.Unlock()
			s.wg.Add(1)
			go s.serveConn(conn)
		}
	}()
	return ln.Addr().String(), nil
}

// serverConn is what one connection's request handlers share: the
// response writer, the server's instruments and the join of the handlers
// still running when the connection ends.
type serverConn struct {
	cw   connWriter
	m    *serverMetrics
	reqs sync.WaitGroup
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	s.mu.RLock()
	m := s.metrics
	s.mu.RUnlock()
	sc := &serverConn{cw: connWriter{conn: conn, coalesced: m.coalesced}, m: m}
	defer sc.reqs.Wait()
	next := getInFrame()
	defer func() { next.recycle() }()
	for {
		f := next
		if err := f.read(conn); err != nil {
			return
		}
		next = getInFrame()
		f.handOff(next)
		if f.msg.kind != msgRequest {
			f.recycle()
			continue
		}
		s.mu.RLock()
		h := s.handlers[string(f.name)]
		s.mu.RUnlock()
		m.requests.Inc()
		m.rxBytes.Add(uint64(len(f.msg.body)))
		m.inFlight.Inc()
		sc.reqs.Add(1)
		f.h, f.conn = h, sc
		gopool.Go(f.run)
	}
}

// handle runs one request's handler on a goroutine of its own (f.run) and
// writes the response. The request allocates nothing on this end: the frame
// is pooled, it carries the task's arguments and the reply scratch, the
// goroutine is a parked worker's when one waits, and the response lives on
// its stack.
func (f *inFrame) handle() {
	sc, h := f.conn, f.h
	m := sc.m
	defer sc.reqs.Done()
	start := time.Now()
	info := CallInfo{Trace: telemetry.SpanContext{Trace: f.msg.trace, Span: f.msg.parent}, Reply: &f.out}
	resp := message{kind: msgResponse, id: f.msg.id}
	if h == nil {
		resp.errStr = ErrNoMethod.Error() + ": " + string(f.name)
	} else if body, err := h(info, f.msg.body); err != nil {
		resp.errStr = err.Error()
	} else {
		resp.body = body
	}
	m.handleUs.RecordTraced(time.Since(start), f.msg.trace)
	m.txBytes.Add(uint64(len(resp.body)))
	m.inFlight.Dec()
	// The handler has run and writeMsg has copied the response into the
	// connection buffer, so the request's frame — which the response may
	// alias, through the body or the reply scratch, and the handler's views
	// of the body do — can be recycled.
	sc.cw.writeMsg(&resp) //nolint:errcheck // writeMsg closes the conn on failure
	f.recycle()
}

// Close stops accepting, closes all connections and waits for handlers.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
	return nil
}

// ClientOptions tunes a client connection.
type ClientOptions struct {
	// Timeout bounds each Call; zero means 30s.
	Timeout time.Duration
	// Delay is an artificial one-way network delay added to every call
	// (applied twice: request and response legs). The benchmark harness
	// uses it to emulate non-loopback networks.
	Delay time.Duration
}

// dialTimeout bounds connection establishment.
const dialTimeout = 5 * time.Second

func (o *ClientOptions) sanitize() ClientOptions {
	var out ClientOptions
	if o != nil {
		out = *o
	}
	if out.Timeout <= 0 {
		out.Timeout = 30 * time.Second
	}
	return out
}

// clientMetrics holds the pre-resolved outbound-call instruments every
// connection of a pool shares. They always exist; until SetTelemetry they
// belong to no registry.
type clientMetrics struct {
	calls     *telemetry.Counter
	inFlight  *telemetry.Gauge
	rxBytes   *telemetry.Counter
	txBytes   *telemetry.Counter
	callUs    *telemetry.Histogram
	coalesced *telemetry.Counter
}

// newClientMetrics resolves the shared outbound-call instruments.
func newClientMetrics(reg *telemetry.Registry) *clientMetrics {
	return &clientMetrics{
		calls:     reg.Counter("rpc.client.calls"),
		inFlight:  reg.Gauge("rpc.client.in_flight"),
		rxBytes:   reg.Counter("rpc.client.rx_bytes"),
		txBytes:   reg.Counter("rpc.client.tx_bytes"),
		callUs:    reg.Histogram("rpc.client.call"),
		coalesced: reg.Counter("rpc.frames_coalesced"),
	}
}

// Client is a multiplexing connection to one server. Safe for concurrent
// use; a failed connection fails all in-flight calls.
type Client struct {
	opts ClientOptions
	peer string // remote address: a fault rule's to
	from string // owner's fault label: a fault rule's from

	mu      sync.Mutex
	conn    net.Conn
	nextID  uint64
	pending map[uint64]*waiter
	closed  bool
	cw      *connWriter
	metrics *clientMetrics
	calls   atomic.Int32 // a Pool's calls in flight on this connection
}

// Dial connects to addr.
func Dial(addr string, opts *ClientOptions) (*Client, error) {
	return dialFrom(addr, opts, "", newClientMetrics(nil))
}

// dialFrom is Dial labelled with the caller's fault-plane identity (pools
// propagate their owner's label, which a rule's from matches) and counting
// into the caller's instruments.
func dialFrom(addr string, opts *ClientOptions, from string, m *clientMetrics) (*Client, error) {
	o := opts.sanitize()
	if fault.Enabled() {
		// A dial is a message on every method: only Wildcard rules see it,
		// and of their actions only a delay or an error acts on it.
		d := fault.Eval(fault.Wildcard, from, addr)
		time.Sleep(d.Delay)
		if d.Err != nil {
			return nil, fmt.Errorf("rpc: dial %s: %w", addr, d.Err)
		}
	}
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("rpc: dial %s: %w", addr, err)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return newClient(conn, addr, o, from, m), nil
}

// newClient runs a client over an established connection to peer.
func newClient(conn net.Conn, peer string, o ClientOptions, from string, m *clientMetrics) *Client {
	c := &Client{
		opts:    o,
		peer:    peer,
		from:    from,
		pending: make(map[uint64]*waiter),
		conn:    conn,
		cw:      &connWriter{conn: conn, coalesced: m.coalesced},
		metrics: m,
	}
	go c.readLoop()
	return c
}

// waiter is one in-flight call's rendezvous with the reader, pooled. The
// one who claims it — takes it out of pending: the reader with the reply,
// or failAll — delivers into its 1-buffered done, so delivery never blocks
// and happens at most once.
//
// A waiter goes back to the pool only after its own reply was delivered
// through it. A call that timed out or failed to send abandons its waiter
// to the GC: the reader or failAll may have claimed it a moment before and
// will still deliver, and a recycled waiter would hand that late reply to
// an unrelated call.
type waiter struct {
	done chan struct{}
	body []byte
	err  error
}

var waiterPool = sync.Pool{New: func() any { return &waiter{done: make(chan struct{}, 1)} }}

func (w *waiter) deliver(body []byte, err error) {
	w.body, w.err = body, err
	w.done <- struct{}{}
}

func (c *Client) readLoop() {
	f := new(inFrame)
	for {
		if err := f.read(c.conn); err != nil {
			c.failAll(err)
			return
		}
		if f.msg.kind != msgResponse {
			continue
		}
		c.mu.Lock()
		w := c.pending[f.msg.id]
		delete(c.pending, f.msg.id)
		c.mu.Unlock()
		if w != nil {
			w.deliver(f.reply())
		}
	}
}

// failAll closes the client and fails every in-flight call.
func (c *Client) failAll(err error) {
	c.mu.Lock()
	pending := c.pending
	c.pending = make(map[uint64]*waiter)
	c.closed = true
	c.mu.Unlock()
	c.conn.Close()
	for _, w := range pending {
		w.deliver(nil, ErrClosed)
	}
}

// Call invokes method with body and waits for the response.
func (c *Client) Call(method string, body []byte) ([]byte, error) {
	return c.CallCtx(telemetry.SpanContext{}, method, body)
}

// CallCtx invokes method with body, attaching the caller's trace context to
// the request frame so the server's spans join the caller's trace.
func (c *Client) CallCtx(ctx telemetry.SpanContext, method string, body []byte) ([]byte, error) {
	m := c.metrics
	m.calls.Inc()
	m.txBytes.Add(uint64(len(body)))
	m.inFlight.Inc()
	start := time.Now()
	resp, err := c.call(ctx, method, body)
	m.callUs.RecordTraced(time.Since(start), ctx.Trace)
	m.rxBytes.Add(uint64(len(resp)))
	m.inFlight.Dec()
	return resp, err
}

func (c *Client) call(ctx telemetry.SpanContext, method string, body []byte) ([]byte, error) {
	// The network's one fault seam: each call is one message from this
	// client's owner to its peer, decided once.
	var d fault.Decision
	if fault.Enabled() {
		d = fault.Eval(method, c.from, c.peer)
	}
	if delay := c.opts.Delay + d.Delay; delay > 0 {
		time.Sleep(delay)
	}
	if d.Err != nil {
		return nil, fmt.Errorf("rpc: send %s: %w", c.peer, d.Err)
	}
	if d.CrashConn {
		c.failAll(ErrClosed)
		return nil, ErrClosed
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	c.nextID++
	id := c.nextID
	w := waiterPool.Get().(*waiter)
	c.pending[id] = w
	c.mu.Unlock()

	// writeMsg copies the request into the connection buffer: the message
	// stays on this stack and the caller may reuse body once call returns.
	req := message{kind: msgRequest, id: id, trace: ctx.Trace, parent: ctx.Span, method: method, body: body}
	if !d.Drop {
		err := c.cw.writeMsg(&req)
		if err == nil && d.Duplicate {
			// Injected duplicate: the server dispatches the request twice;
			// the response matcher drops the second reply.
			err = c.cw.writeMsg(&req)
		}
		if err != nil {
			c.mu.Lock()
			delete(c.pending, id)
			c.mu.Unlock()
			return nil, fmt.Errorf("rpc: send: %w", err) // w is abandoned
		}
	}

	timer := getTimer(c.opts.Timeout)
	defer putTimer(timer)
	select {
	case <-w.done:
		resp, err := w.body, w.err
		w.body, w.err = nil, nil
		waiterPool.Put(w)
		if c.opts.Delay > 0 {
			time.Sleep(c.opts.Delay)
		}
		return resp, err
	case <-timer.C:
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrTimeout, method) // w is abandoned
	}
}

// timerPool recycles the per-call timeout timers.
var timerPool sync.Pool

func getTimer(d time.Duration) *time.Timer {
	if t, ok := timerPool.Get().(*time.Timer); ok {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

// putTimer stops t and recycles it. This module's go line predates 1.23,
// so a timer that fired keeps its tick buffered in C: it is drained here,
// or the timer's next user would time out at once.
func putTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	timerPool.Put(t)
}

// Close tears the connection down, failing in-flight calls.
func (c *Client) Close() error {
	c.failAll(ErrClosed)
	return nil
}

// Closed reports whether the client connection has failed or been closed.
func (c *Client) Closed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// Pool holds connections per address, redialing transparently after
// failures. It is how nodes reach each other without per-call dials. Each
// connection to a peer is a lane: a call takes the first idle one, and the
// pool dials another only when every open lane has a call in flight, up to
// GOMAXPROCS lanes. A sequential caller so stays on one connection, while
// calls sent together each get a reader and a flusher of their own rather
// than queuing on one. A failed lane is dropped when a call next finds it,
// and replaced by a dial only if the calls need it.
type Pool struct {
	opts     ClientOptions
	maxLanes int // runtime.GOMAXPROCS(0) when the pool was made

	mu      sync.Mutex
	lanes   map[string][]*Client
	reg     *telemetry.Registry
	metrics *clientMetrics
	label   string // fault-plane identity of the pool's owner
}

// NewPool returns an empty pool using opts for every connection.
func NewPool(opts *ClientOptions) *Pool {
	return &Pool{opts: opts.sanitize(), maxLanes: runtime.GOMAXPROCS(0), lanes: make(map[string][]*Client), metrics: newClientMetrics(nil)}
}

// SetTelemetry publishes the pool's outbound-call instruments (calls,
// in-flight, bytes on the wire) in reg, and makes reg the registry of
// whatever is built over the pool (Registry). Call before traffic; existing
// connections keep the instruments they were dialed with.
func (p *Pool) SetTelemetry(reg *telemetry.Registry) {
	p.mu.Lock()
	p.reg = reg
	p.metrics = newClientMetrics(reg)
	p.mu.Unlock()
}

// Registry returns the registry the pool counts into (nil until
// SetTelemetry). A component constructed over the pool — the replication
// shipper — publishes its own instruments there, so one SetTelemetry call
// instruments the whole outbound side.
func (p *Pool) Registry() *telemetry.Registry {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.reg
}

// SetFaultLabel names the pool's owner (usually its node's RPC address) to
// the fault plane: it is what a rule's from matches on this pool's dials and
// calls. Call before traffic; existing connections keep their label.
func (p *Pool) SetFaultLabel(label string) {
	p.mu.Lock()
	p.label = label
	p.mu.Unlock()
}

// lane claims a connection to addr for one call, which gives it back with
// calls.Add(-1): the first idle lane, else a new one while addr has fewer
// than maxLanes, else the lane with the fewest calls in flight.
func (p *Pool) lane(addr string) (*Client, error) {
	for {
		p.mu.Lock()
		lanes := slices.DeleteFunc(p.lanes[addr], (*Client).Closed)
		p.lanes[addr] = lanes
		var least *Client
		for _, c := range lanes {
			if least == nil || c.calls.Load() < least.calls.Load() {
				least = c
			}
		}
		if least != nil && (least.calls.Load() == 0 || len(lanes) >= p.maxLanes) {
			least.calls.Add(1)
			p.mu.Unlock()
			return least, nil
		}
		label, m := p.label, p.metrics
		p.mu.Unlock()
		nc, err := dialFrom(addr, &p.opts, label, m)
		if err != nil {
			return nil, err
		}
		p.mu.Lock()
		room := len(p.lanes[addr]) < p.maxLanes
		if room {
			nc.calls.Add(1)
			p.lanes[addr] = append(p.lanes[addr], nc)
		}
		p.mu.Unlock()
		if room {
			return nc, nil
		}
		nc.Close() // concurrent dials filled the lanes meanwhile: take one of theirs
	}
}

// Call is shorthand for CallCtx with no trace context.
func (p *Pool) Call(addr, method string, body []byte) ([]byte, error) {
	return p.CallCtx(addr, telemetry.SpanContext{}, method, body)
}

// CallCtx invokes method at addr on one of its lanes.
func (p *Pool) CallCtx(addr string, ctx telemetry.SpanContext, method string, body []byte) ([]byte, error) {
	c, err := p.lane(addr)
	if err != nil {
		return nil, err
	}
	defer c.calls.Add(-1)
	return c.CallCtx(ctx, method, body)
}

// Close closes every pooled connection.
func (p *Pool) Close() {
	p.mu.Lock()
	lanes := p.lanes
	p.lanes = make(map[string][]*Client)
	p.mu.Unlock()
	for _, cs := range lanes {
		for _, c := range cs {
			c.Close()
		}
	}
}
