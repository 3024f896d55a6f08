// Package rpc is the network substrate of LambdaStore: a compact
// length-framed request/response protocol over TCP with per-connection
// multiplexing (many in-flight requests share one connection), per-call
// timeouts, and an injectable artificial delay used by the benchmark
// harness to emulate LAN/WAN round-trip times on loopback.
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
	"sync"
	"sync/atomic"
	"time"

	"lambdastore/internal/fault"
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
	method string // requests only
	errStr string // responses only
	body   []byte
	// raw, when set, is the pooled frame buffer that body aliases; release
	// returns it for reuse. Servers release after the handler and response
	// write; clients never release (body ownership passes to the caller).
	raw *[]byte
}

// release recycles the message's pooled frame buffer. The body must not be
// used after release.
func (m *message) release() {
	if m.raw != nil {
		putFrameBuf(m.raw)
		m.raw = nil
		m.body = nil
	}
}

// framePool recycles inbound frame buffers. Entries are *[]byte so Put does
// not allocate an interface header per recycle.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledFrame bounds what readFrame returns to the pool, so one huge
// state-transfer frame does not pin megabytes in every pool shard.
const maxPooledFrame = 1 << 20

func getFrameBuf(n int) *[]byte {
	p := framePool.Get().(*[]byte)
	if cap(*p) < n {
		*p = make([]byte, n)
	}
	*p = (*p)[:n]
	return p
}

func putFrameBuf(p *[]byte) {
	if cap(*p) > maxPooledFrame {
		return
	}
	framePool.Put(p)
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

func decodeMessage(b []byte) (*message, error) {
	r := wire.NewReader(b)
	// The body aliases b; when b is a pooled frame buffer the caller sets
	// m.raw and controls the buffer's lifetime (no copy on the hot path).
	m := &message{kind: r.Byte(), id: r.Uvarint(), trace: r.Uvarint(), parent: r.Uvarint(),
		method: r.Str(), errStr: r.Str(), body: r.Bytes()}
	if err := r.ErrIn("rpc: message"); err != nil {
		return nil, err
	}
	return m, nil
}

// readFrame receives one message. The message body aliases a pooled buffer:
// the caller owns it until message.release (or forever, if never released).
func readFrame(r io.Reader) (*message, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("rpc: frame of %d bytes exceeds limit", n)
	}
	p := getFrameBuf(int(n))
	if _, err := io.ReadFull(r, *p); err != nil {
		putFrameBuf(p)
		return nil, err
	}
	m, err := decodeMessage(*p)
	if err != nil {
		putFrameBuf(p)
		return nil, err
	}
	m.raw = p
	return m, nil
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

// fail poisons the writer so queued and future writes return err.
func (w *connWriter) fail(err error) {
	w.mu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.mu.Unlock()
}

// Handler serves one method. The returned bytes become the response body;
// a non-nil error is sent to the caller as a RemoteError.
type Handler func(body []byte) ([]byte, error)

// CallInfo carries per-request metadata into a handler: the caller's trace
// context, restored from the request frame.
type CallInfo struct {
	Trace telemetry.SpanContext
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
// handlers. Each request runs in its own goroutine, so slow handlers do not
// head-of-line block the connection.
type Server struct {
	mu       sync.RWMutex
	handlers map[string]HandlerCtx
	ln       net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup

	metrics *serverMetrics

	// faultLabel identifies this server to the fault plane (rpc.recv key);
	// Serve sets it to the bound address.
	faultLabel atomic.Pointer[string]
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

	label := ln.Addr().String()
	s.faultLabel.Store(&label)

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

// Addr returns the listen address, or "" before Serve.
func (s *Server) Addr() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
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
	cw := &connWriter{conn: conn, coalesced: m.coalesced}
	var reqWG sync.WaitGroup
	defer reqWG.Wait()
	for {
		msg, err := readFrame(conn)
		if err != nil {
			return
		}
		if msg.kind != msgRequest {
			msg.release()
			continue
		}
		if fault.Enabled() {
			label := ""
			if l := s.faultLabel.Load(); l != nil {
				label = *l
			}
			d := fault.Eval(fault.SiteRPCRecv, label)
			if d.CrashConn {
				msg.release()
				return // deferred cleanup closes the connection
			}
			if d.Drop {
				msg.release()
				continue // the request vanishes; the caller times out
			}
			if d.Delay > 0 {
				time.Sleep(d.Delay)
			}
			if d.Err != nil {
				cw.writeMsg(&message{kind: msgResponse, id: msg.id, errStr: d.Err.Error()}) //nolint:errcheck // writeMsg closes the conn on failure
				msg.release()
				continue
			}
		}
		s.mu.RLock()
		h := s.handlers[msg.method]
		s.mu.RUnlock()
		m.requests.Inc()
		m.rxBytes.Add(uint64(len(msg.body)))
		m.inFlight.Inc()
		reqWG.Add(1)
		go func(msg *message) {
			defer reqWG.Done()
			start := time.Now()
			info := CallInfo{Trace: telemetry.SpanContext{Trace: msg.trace, Span: msg.parent}}
			resp := &message{kind: msgResponse, id: msg.id}
			if h == nil {
				resp.errStr = ErrNoMethod.Error() + ": " + msg.method
			} else if body, err := h(info, msg.body); err != nil {
				resp.errStr = err.Error()
			} else {
				resp.body = body
			}
			m.handleUs.RecordTraced(time.Since(start), msg.trace)
			m.txBytes.Add(uint64(len(resp.body)))
			m.inFlight.Dec()
			// The handler has run and writeMsg has copied the response
			// into the connection buffer, so the request's pooled frame —
			// which resp.body may alias via the handler — can be recycled.
			cw.writeMsg(resp) //nolint:errcheck // writeMsg closes the conn on failure
			msg.release()
		}(msg)
	}
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
	peer string // remote address (fault-plane key for rpc.send)
	from string // owner's fault label (partition-matrix endpoint)

	mu      sync.Mutex
	conn    net.Conn
	nextID  uint64
	pending map[uint64]chan *message
	closed  bool
	cw      *connWriter
	metrics *clientMetrics
}

// Dial connects to addr.
func Dial(addr string, opts *ClientOptions) (*Client, error) {
	return dialFrom(addr, opts, "", newClientMetrics(nil))
}

// dialFrom is Dial labelled with the caller's fault-plane identity (pools
// propagate their owner's label so link partitions can name both ends) and
// counting into the caller's instruments.
func dialFrom(addr string, opts *ClientOptions, from string, m *clientMetrics) (*Client, error) {
	o := opts.sanitize()
	if fault.Enabled() {
		if fault.Partitioned(from, addr) {
			return nil, fmt.Errorf("rpc: dial %s: %w", addr, fault.ErrPartitioned)
		}
		d := fault.Eval(fault.SiteRPCDial, addr)
		if d.Delay > 0 {
			time.Sleep(d.Delay)
		}
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
	c := &Client{
		opts:    o,
		peer:    addr,
		from:    from,
		pending: make(map[uint64]chan *message),
		conn:    conn,
		cw:      &connWriter{conn: conn, coalesced: m.coalesced},
		metrics: m,
	}
	go c.readLoop()
	return c, nil
}

func (c *Client) readLoop() {
	for {
		msg, err := readFrame(c.conn)
		if err != nil {
			c.failAll(err)
			return
		}
		if msg.kind != msgResponse {
			continue
		}
		c.mu.Lock()
		ch := c.pending[msg.id]
		delete(c.pending, msg.id)
		c.mu.Unlock()
		if ch != nil {
			ch <- msg
		}
	}
}

// failAll closes the client and fails every in-flight call.
func (c *Client) failAll(err error) {
	c.mu.Lock()
	pending := c.pending
	c.pending = make(map[uint64]chan *message)
	c.closed = true
	c.mu.Unlock()
	c.conn.Close()
	for _, ch := range pending {
		ch <- &message{kind: msgResponse, errStr: ErrClosed.Error()}
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
	if c.opts.Delay > 0 {
		time.Sleep(c.opts.Delay)
	}
	var drop, dup bool
	if fault.Enabled() {
		if fault.Partitioned(c.from, c.peer) {
			return nil, fmt.Errorf("rpc: send %s: %w", c.peer, fault.ErrPartitioned)
		}
		d := fault.Eval(fault.SiteRPCSend, c.peer)
		if d.Delay > 0 {
			time.Sleep(d.Delay)
		}
		if d.Err != nil {
			return nil, fmt.Errorf("rpc: send %s: %w", c.peer, d.Err)
		}
		if d.CrashConn {
			c.failAll(ErrClosed)
			return nil, ErrClosed
		}
		drop, dup = d.Drop, d.Duplicate
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	c.nextID++
	id := c.nextID
	ch := make(chan *message, 1)
	c.pending[id] = ch
	c.mu.Unlock()

	req := &message{kind: msgRequest, id: id, trace: ctx.Trace, parent: ctx.Span, method: method, body: body}
	if !drop {
		err := c.cw.writeMsg(req)
		if err == nil && dup {
			// Injected duplicate: the server dispatches the request twice;
			// the response matcher drops the second reply.
			err = c.cw.writeMsg(req)
		}
		if err != nil {
			c.mu.Lock()
			delete(c.pending, id)
			c.mu.Unlock()
			return nil, fmt.Errorf("rpc: send: %w", err)
		}
	}

	timer := getTimer(c.opts.Timeout)
	defer putTimer(timer)
	select {
	case resp := <-ch:
		if c.opts.Delay > 0 {
			time.Sleep(c.opts.Delay)
		}
		if resp.errStr != "" {
			if resp.errStr == ErrClosed.Error() {
				return nil, ErrClosed
			}
			return nil, &RemoteError{Msg: resp.errStr}
		}
		return resp.body, nil
	case <-timer.C:
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrTimeout, method)
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

// Pool hands out clients per address, redialing transparently after
// failures. It is how nodes reach each other without per-call dials.
type Pool struct {
	opts ClientOptions

	mu      sync.Mutex
	clients map[string]*Client
	reg     *telemetry.Registry
	metrics *clientMetrics
	label   string // fault-plane identity of the pool's owner
}

// NewPool returns an empty pool using opts for every connection.
func NewPool(opts *ClientOptions) *Pool {
	return &Pool{opts: opts.sanitize(), clients: make(map[string]*Client), metrics: newClientMetrics(nil)}
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
// the fault plane, so link partitions can match this end of the pool's
// connections. Call before traffic; existing connections keep their label.
func (p *Pool) SetFaultLabel(label string) {
	p.mu.Lock()
	p.label = label
	p.mu.Unlock()
}

// Get returns a live client for addr, dialing if needed.
func (p *Pool) Get(addr string) (*Client, error) {
	p.mu.Lock()
	c, ok := p.clients[addr]
	label, m := p.label, p.metrics
	if ok && !c.Closed() {
		p.mu.Unlock()
		return c, nil
	}
	delete(p.clients, addr)
	p.mu.Unlock()

	nc, err := dialFrom(addr, &p.opts, label, m)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	if existing, ok := p.clients[addr]; ok && !existing.Closed() {
		p.mu.Unlock()
		nc.Close()
		return existing, nil
	}
	p.clients[addr] = nc
	p.mu.Unlock()
	return nc, nil
}

// Call is shorthand for Get(addr).Call(method, body).
func (p *Pool) Call(addr, method string, body []byte) ([]byte, error) {
	return p.CallCtx(addr, telemetry.SpanContext{}, method, body)
}

// CallCtx is shorthand for Get(addr).CallCtx(ctx, method, body).
func (p *Pool) CallCtx(addr string, ctx telemetry.SpanContext, method string, body []byte) ([]byte, error) {
	c, err := p.Get(addr)
	if err != nil {
		return nil, err
	}
	return c.CallCtx(ctx, method, body)
}

// Close closes every pooled client.
func (p *Pool) Close() {
	p.mu.Lock()
	clients := p.clients
	p.clients = make(map[string]*Client)
	p.mu.Unlock()
	for _, c := range clients {
		c.Close()
	}
}
