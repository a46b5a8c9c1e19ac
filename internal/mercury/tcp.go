package mercury

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mochi/internal/codec"
	"mochi/internal/metrics"
)

// maxFrame bounds a single TCP frame (64 MiB) to protect against
// corrupt length prefixes.
const maxFrame = 64 << 20

// bulkFrameMin is the payload size from which a frame stops passing
// through frame buffers: above it the sender gathers the payload
// straight from the caller's memory and the receiver lands a bulk
// ack's payload straight in the initiator's registered region. It is
// the codec pools' retention limit — a larger payload would grow a
// pooled buffer only for the pool to drop it.
const bulkFrameMin = 64 << 10

// readBufferSize sizes each connection's buffered reader, so a burst
// of small frames queued in the socket buffer drains with one read(2)
// instead of two syscalls per frame.
const readBufferSize = 64 << 10

// scratchCap caps the per-connection frame-body scratch buffer. After a
// frame larger than this is read the scratch is released, so one
// oversized frame (up to maxFrame) does not pin its footprint for the
// connection's lifetime — at thousands of connections that would be a
// silent memory bomb.
const scratchCap = 1 << 20

// TCPOptions tunes the TCP transport. The zero value selects defaults
// sized for the host; NewTCPClass uses it.
type TCPOptions struct {
	// PoolSize is the number of connections kept per destination.
	// In-flight RPCs are striped over the pool by sequence number, so
	// many outstanding forwards to one peer spread over PoolSize
	// sockets instead of serializing on one write path. Default
	// min(4, GOMAXPROCS), clamped to [1, 64].
	PoolSize int
}

func (o TCPOptions) withDefaults() TCPOptions {
	if o.PoolSize <= 0 {
		o.PoolSize = min(4, runtime.GOMAXPROCS(0))
	}
	o.PoolSize = min(o.PoolSize, 64)
	return o
}

// NewTCPClass starts a real TCP endpoint listening on listenAddr
// (e.g. "127.0.0.1:0") with default options. Its address is
// "tcp://<host:port>". It is wire-compatible with other TCP classes of
// this package and is used by cmd/bedrock for multi-OS-process
// deployments.
func NewTCPClass(listenAddr string) (*Class, error) {
	return NewTCPClassOptions(listenAddr, TCPOptions{})
}

// NewTCPClassOptions is NewTCPClass with explicit transport tuning.
func NewTCPClassOptions(listenAddr string, opts TCPOptions) (*Class, error) {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("mercury: listen: %w", err)
	}
	tr := &tcpTransport{
		listener: ln,
		address:  "tcp://" + ln.Addr().String(),
		opts:     opts.withDefaults(),
		pools:    map[string]*connPool{},
		routes:   map[string][]*tcpConn{},
		inbound:  map[*tcpConn]struct{}{},
		done:     make(chan struct{}),
	}
	cls := newClass(tr)
	tr.class = cls
	go tr.acceptLoop()
	return cls, nil
}

type tcpTransport struct {
	listener net.Listener
	address  string
	class    *Class
	opts     TCPOptions

	mu sync.Mutex
	// pools holds outbound connections, a fixed-size slot array per
	// destination; in-flight messages stripe over slots by sequence.
	pools map[string]*connPool
	// routes maps a peer's advertised address to the inbound
	// connections it dialed to us. Responses and bulk acks ride back
	// on these instead of dialing the peer's listener: halves the
	// connection count per pair and lets non-accepting clients
	// (NAT'd tools, short-lived queriers) receive responses.
	routes map[string][]*tcpConn
	// inbound holds every accepted connection, routed or not, so close
	// reaches one whose peer has not sent a frame yet.
	inbound map[*tcpConn]struct{}

	done     chan struct{}
	stopOnce sync.Once

	met atomic.Pointer[tcpMetrics]
}

// connPool is the per-destination outbound slot array. Slots dial
// lazily: a destination that only ever sees one outstanding RPC at a
// time keeps one connection, whatever PoolSize says.
type connPool struct {
	conns []*tcpConn
	dials []*pendingDial
}

// pendingDial is one in-flight dial for one pool slot. Concurrent
// senders striped to the same slot wait on done rather than dialing
// redundantly, and the transport lock is never held across the dial
// itself — a slow or blackholed destination must not stall sends to
// healthy ones, and a waiter must stay responsive to its own context
// (the dial may be running under someone else's much longer deadline).
type pendingDial struct {
	done chan struct{} // closed once tc/err are set
	tc   *tcpConn
	err  error
}

// tcpDialContext dials one outbound connection. It is a variable so
// tests can substitute slow, blocking, or failing dials.
var tcpDialContext = func(ctx context.Context, host string) (net.Conn, error) {
	var d net.Dialer
	return d.DialContext(ctx, "tcp", host)
}

// tcpMetrics caches the transport's metric series so hot paths observe
// through plain pointers, no registry lookups.
type tcpMetrics struct {
	acceptErrors *metrics.Counter
	inbound      *metrics.Gauge
	outbound     *metrics.Gauge
	poolConns    *metrics.GaugeVec
	dialLatency  *metrics.Histogram
	writevBatch  *metrics.Histogram
}

// setMetrics installs the transport series into reg (nil uninstalls).
// Class.SetMetrics calls this for transports that support it.
func (t *tcpTransport) setMetrics(reg *metrics.Registry) {
	if reg == nil {
		t.met.Store(nil)
		return
	}
	open := reg.Gauge("mochi_tcp_open_conns",
		"Open TCP transport connections, by direction.", "direction")
	m := &tcpMetrics{
		acceptErrors: reg.Counter("mochi_tcp_accept_errors_total",
			"Accept failures on the TCP listener (each retried with capped backoff).").With(),
		inbound:  open.With("inbound"),
		outbound: open.With("outbound"),
		poolConns: reg.Gauge("mochi_tcp_pool_conns",
			"Dialed outbound connections per destination pool.", "dst"),
		dialLatency: reg.Histogram("mochi_tcp_dial_latency_seconds",
			"Outbound TCP dial latency in seconds.", metrics.LatencyBuckets).With(),
		writevBatch: reg.Histogram("mochi_tcp_writev_batch_frames",
			"Frames retired per egress write call (writev gather batch size).",
			metrics.ExpBuckets(1, 2, 12)).With(),
	}
	t.met.Store(m)
}

func (t *tcpTransport) metrics() *tcpMetrics { return t.met.Load() }

// tcpConn wraps one connection (outbound or accepted) with a batching
// egress queue. The first sender to arrive becomes the drain leader:
// it writes its own frame plus everything queued behind it, gathering
// each batch into net.Buffers so the kernel retires it with one
// writev(2) and no intermediate copy. Later senders enqueue and wait
// for their batch's result. A lone sender takes the inline fast path —
// one plain Write, no queuing, no handoff — so batching never adds
// latency when there is no concurrency to amortize.
type tcpConn struct {
	c net.Conn
	t *tcpTransport

	mu      sync.Mutex
	werr    error // sticky first write error
	writing bool  // a drain leader is active
	queue   [][]byte
	acks    []chan error
	// spare queue/ack arrays ping-pong with the active ones so
	// steady-state enqueueing never allocates.
	spareQ [][]byte
	spareA []chan error
	iovs   net.Buffers // gather scratch, reused across batches
}

func newTCPConn(c net.Conn, t *tcpTransport) *tcpConn {
	return &tcpConn{c: c, t: t}
}

// ackChanPool recycles the per-enqueue result channels. Channels are
// pointer-shaped, so Get/Put do not box.
var ackChanPool = sync.Pool{New: func() any { return make(chan error, 1) }}

// writeFrame sends one encoded frame, blocking until it is on the wire
// (or failed). A frame is head alone, or head, body and tail written
// back to back — how a large payload goes out as its own gather entry
// instead of being copied into the frame buffer. All three are
// borrowed for the duration of the call only.
func (tc *tcpConn) writeFrame(head, body, tail []byte) error {
	tc.mu.Lock()
	if tc.werr != nil {
		err := tc.werr
		tc.mu.Unlock()
		return err
	}
	if !tc.writing {
		tc.writing = true
		return tc.drainAndUnlock(head, body, tail)
	}
	ch := ackChanPool.Get().(chan error)
	tc.queue = append(tc.queue, head)
	if body != nil {
		tc.queue = append(tc.queue, body, tail)
	}
	tc.acks = append(tc.acks, ch)
	tc.mu.Unlock()
	err := <-ch
	ackChanPool.Put(ch)
	return err
}

// drainAndUnlock runs the drain leader. Entered with tc.mu held and
// tc.writing freshly set; head (with body and tail, if any) is the
// leader's frame. It returns the write result that applied to the
// leader's batch after the queue is empty and leadership is released.
func (tc *tcpConn) drainAndUnlock(head, body, tail []byte) error {
	var ownErr error
	own := true
	for {
		q, a := tc.queue, tc.acks
		tc.queue, tc.acks = tc.spareQ, tc.spareA
		werr := tc.werr
		tc.mu.Unlock()

		iov := tc.iovs[:0]
		frames := len(a)
		if own {
			frames++
			iov = append(iov, head)
			if body != nil {
				iov = append(iov, body, tail)
			}
		}
		iov = append(iov, q...)
		tc.iovs = iov
		var err error
		switch {
		case werr != nil:
			err = werr
		case len(iov) == 1:
			_, err = tc.c.Write(iov[0])
		default:
			bufs := iov // WriteTo consumes its receiver; keep iovs' header
			_, err = bufs.WriteTo(tc.c)
		}
		if werr == nil {
			if met := tc.t.metrics(); met != nil {
				met.writevBatch.Observe(float64(frames))
			}
		}
		if own {
			ownErr = err
			own = false
		}
		for i, ch := range a {
			ch <- err
			a[i] = nil
		}
		for i := range q {
			q[i] = nil
		}
		for i := range iov {
			iov[i] = nil // borrowed frames must not outlive their write
		}

		tc.mu.Lock()
		if err != nil && tc.werr == nil {
			tc.werr = err
		}
		tc.spareQ, tc.spareA = q[:0], a[:0]
		if len(tc.queue) == 0 {
			tc.writing = false
			tc.mu.Unlock()
			return ownErr
		}
	}
}

func (t *tcpTransport) addr() string { return t.address }

// acceptBackoffMax caps the exponential backoff between accept
// retries. Temporary accept errors (EMFILE under connection storms,
// ECONNABORTED) must not hot-spin the accept loop.
const acceptBackoffMax = 100 * time.Millisecond

// acceptLoop is the listener's one accept goroutine. More would not
// accept in parallel: Go's poll.FD.Accept holds the listener fd's read
// lock, so concurrent Accept calls on one listener take turns. Each
// accepted connection gets its own reader at once.
func (t *tcpTransport) acceptLoop() {
	backoff := time.Duration(0)
	for {
		conn, err := t.listener.Accept()
		if err != nil {
			select {
			case <-t.done:
				return
			default:
			}
			if met := t.metrics(); met != nil {
				met.acceptErrors.Inc()
			}
			if backoff == 0 {
				backoff = time.Millisecond
			} else if backoff *= 2; backoff > acceptBackoffMax {
				backoff = acceptBackoffMax
			}
			select {
			case <-t.done:
				return
			case <-time.After(backoff):
			}
			continue
		}
		backoff = 0
		go t.serveInbound(conn)
	}
}

// serveInbound owns one accepted connection: it reads frames through a
// buffered reader (many queued frames per syscall), registers the
// connection as a response route for the dialing peer once the peer's
// address is known, and dispatches every message.
func (t *tcpTransport) serveInbound(conn net.Conn) {
	tc := newTCPConn(conn, t)
	t.mu.Lock()
	select {
	case <-t.done:
		t.mu.Unlock()
		conn.Close()
		return
	default:
	}
	t.inbound[tc] = struct{}{}
	t.mu.Unlock()
	if met := t.metrics(); met != nil {
		met.inbound.Inc()
	}
	var src string
	defer func() {
		if src != "" {
			t.dropRoute(src, tc)
		}
		t.mu.Lock()
		delete(t.inbound, tc)
		t.mu.Unlock()
		conn.Close()
		if met := t.metrics(); met != nil {
			met.inbound.Dec()
		}
	}()
	br := bufio.NewReaderSize(conn, readBufferSize)
	var scratch []byte
	for {
		m, err := t.readMessage(br, &scratch)
		if err != nil {
			return
		}
		if src == "" && m.src != "" && m.src != t.address {
			src = m.src
			t.addRoute(src, tc)
		}
		t.class.dispatch(m)
	}
}

func (t *tcpTransport) addRoute(src string, tc *tcpConn) {
	t.mu.Lock()
	t.routes[src] = append(t.routes[src], tc)
	t.mu.Unlock()
}

func (t *tcpTransport) dropRoute(src string, tc *tcpConn) {
	t.mu.Lock()
	conns := t.routes[src]
	for i, c := range conns {
		if c == tc {
			conns[i] = conns[len(conns)-1]
			conns = conns[:len(conns)-1]
			break
		}
	}
	if len(conns) == 0 {
		delete(t.routes, src)
	} else {
		t.routes[src] = conns
	}
	t.mu.Unlock()
}

// routeConn returns an inbound connection from dst to respond on, or
// nil if dst never dialed us (or its connections are gone). Striped by
// seq so responses to one busy peer spread over its pooled dials.
func (t *tcpTransport) routeConn(dst string, seq uint64) *tcpConn {
	t.mu.Lock()
	conns := t.routes[dst]
	var tc *tcpConn
	if n := len(conns); n > 0 {
		tc = conns[seq%uint64(n)]
	}
	t.mu.Unlock()
	return tc
}

// getConn returns the pooled outbound connection for (dst, seq),
// dialing its slot if needed.
func (t *tcpTransport) getConn(ctx context.Context, dst string, seq uint64) (*tcpConn, error) {
	slot := int(seq % uint64(t.opts.PoolSize))
	for {
		t.mu.Lock()
		p := t.pools[dst]
		if p == nil {
			p = &connPool{
				conns: make([]*tcpConn, t.opts.PoolSize),
				dials: make([]*pendingDial, t.opts.PoolSize),
			}
			t.pools[dst] = p
		}
		if tc := p.conns[slot]; tc != nil {
			t.mu.Unlock()
			return tc, nil
		}
		if pd := p.dials[slot]; pd != nil {
			t.mu.Unlock()
			select {
			case <-pd.done:
				if pd.err == nil {
					return pd.tc, nil
				}
				// The owner's dial failed under the owner's context;
				// retry under ours — it may be more patient.
				continue
			case <-ctx.Done():
				return nil, classifyNetErr(dst, ctx.Err())
			case <-t.done:
				return nil, ErrClassClosed
			}
		}
		pd := &pendingDial{done: make(chan struct{})}
		p.dials[slot] = pd
		t.mu.Unlock()
		return t.dial(ctx, dst, slot, pd)
	}
}

// dial performs the dial this goroutine owns (registered in the pool's
// dials[slot] as pd), publishes the outcome to waiters, and starts the
// connection's read loop on success. It runs without the transport
// lock.
func (t *tcpTransport) dial(ctx context.Context, dst string, slot int, pd *pendingDial) (*tcpConn, error) {
	host := dst
	if len(dst) > 6 && dst[:6] == "tcp://" {
		host = dst[6:]
	}
	// Dial under the caller's context so a Forward deadline bounds
	// connection establishment, not just the wait for the response.
	start := time.Now()
	conn, err := tcpDialContext(ctx, host)

	t.mu.Lock()
	if p := t.pools[dst]; p != nil && p.dials[slot] == pd {
		p.dials[slot] = nil
	}
	select {
	case <-t.done:
		t.mu.Unlock()
		if err == nil {
			conn.Close()
		}
		pd.err = ErrClassClosed
		close(pd.done)
		return nil, ErrClassClosed
	default:
	}
	if err != nil {
		t.mu.Unlock()
		pd.err = classifyNetErr(dst, err)
		close(pd.done)
		return nil, pd.err
	}
	tc := newTCPConn(conn, t)
	var open int
	if p := t.pools[dst]; p != nil {
		p.conns[slot] = tc
		open = p.open()
	}
	t.mu.Unlock()
	if met := t.metrics(); met != nil {
		met.dialLatency.Observe(time.Since(start).Seconds())
		met.outbound.Inc()
		met.poolConns.With(dst).Set(float64(open))
	}
	pd.tc = tc
	close(pd.done)
	// Responses to our outbound requests come back on this same
	// connection (and peers may push frames on it too); read them.
	go func() {
		defer func() {
			t.evictPool(dst, slot, tc)
			conn.Close()
			if met := t.metrics(); met != nil {
				met.outbound.Dec()
			}
		}()
		br := bufio.NewReaderSize(conn, readBufferSize)
		var scratch []byte
		for {
			m, err := t.readMessage(br, &scratch)
			if err != nil {
				return
			}
			t.class.dispatch(m)
		}
	}()
	return tc, nil
}

func (p *connPool) open() int {
	n := 0
	for _, c := range p.conns {
		if c != nil {
			n++
		}
	}
	return n
}

// evictPool forgets tc if it still occupies its pool slot, so the next
// send striped there redials.
func (t *tcpTransport) evictPool(dst string, slot int, tc *tcpConn) {
	t.mu.Lock()
	var open int
	evicted := false
	if p := t.pools[dst]; p != nil && p.conns[slot] == tc {
		p.conns[slot] = nil
		open = p.open()
		evicted = true
	}
	t.mu.Unlock()
	if evicted {
		if met := t.metrics(); met != nil {
			met.poolConns.With(dst).Set(float64(open))
		}
	}
}

func (t *tcpTransport) send(ctx context.Context, dst string, m *message) error {
	select {
	case <-t.done:
		return ErrClassClosed
	default:
	}
	// Responses and bulk acks prefer the connection their request
	// arrived on; everything else goes through the outbound pool.
	var tc *tcpConn
	fromRoute := false
	if m.kind == msgResponse || m.kind == msgBulkAck {
		if tc = t.routeConn(dst, m.seq); tc != nil {
			fromRoute = true
		}
	}
	if tc == nil {
		var err error
		tc, err = t.getConn(ctx, dst, m.seq)
		if err != nil {
			return err
		}
	}
	// Serialize the message into one pooled buffer so each frame is a
	// single gather entry: a 4-byte little-endian length prefix
	// followed by the encoded message. A payload the encoder pool
	// would not keep anyway (a bulk region, a large RPC argument) is
	// not copied in: the buffer holds what precedes and what follows
	// it, and the payload rides between the two as its own entry.
	enc := codec.GetEncoder()
	enc.Uint32(0) // length placeholder
	var head, body, tail []byte
	if len(m.payload) >= bulkFrameMin {
		m.procHead(enc.Proc())
		enc.Uvarint(uint64(len(m.payload)))
		split := enc.Len()
		m.procTail(enc.Proc())
		head, body, tail = enc.Bytes()[:split], m.payload, enc.Bytes()[split:]
	} else {
		m.Proc(enc.Proc())
		head = enc.Bytes()
	}
	binary.LittleEndian.PutUint32(head[:4], uint32(len(head)-4+len(body)+len(tail)))
	err := tc.writeFrame(head, body, tail)
	if err != nil && fromRoute {
		// The inbound route died under us; fall back to the pool once
		// (the frame stays valid until the encoder is recycled).
		tc.c.Close()
		if tc2, derr := t.getConn(ctx, dst, m.seq); derr == nil {
			if err = tc2.writeFrame(head, body, tail); err != nil {
				t.evictPool(dst, int(m.seq%uint64(t.opts.PoolSize)), tc2)
				tc2.c.Close()
			}
		} else {
			err = derr
		}
	} else if err != nil {
		// Connection broke: forget it so the next send redials.
		t.evictPool(dst, int(m.seq%uint64(t.opts.PoolSize)), tc)
		tc.c.Close()
	}
	codec.PutEncoder(enc)
	if err != nil {
		return classifyNetErr(dst, err)
	}
	return nil
}

// classifyNetErr maps dial/write failures onto the package's
// retryable error values, always naming the destination: refused and
// reset connections are transient conditions a retry policy should act
// on, not opaque failures.
func classifyNetErr(dst string, err error) error {
	switch {
	case errors.Is(err, ErrClassClosed):
		return err
	case errors.Is(err, ErrUnreachable), errors.Is(err, ErrConnReset):
		return err
	case errors.Is(err, syscall.ECONNRESET), errors.Is(err, syscall.EPIPE),
		errors.Is(err, net.ErrClosed), errors.Is(err, io.ErrClosedPipe):
		return fmt.Errorf("%w: %s (%v)", ErrConnReset, dst, err)
	case errors.Is(err, syscall.ECONNREFUSED):
		return fmt.Errorf("%w: %s: connection refused (%v)", ErrUnreachable, dst, err)
	default:
		return fmt.Errorf("%w: %s (%v)", ErrUnreachable, dst, err)
	}
}

// resetConn drops every cached connection to/from dst, forcing the
// next send to redial. The chaos injector uses it to simulate
// connection resets against the real TCP stack.
func (t *tcpTransport) resetConn(dst string) {
	t.mu.Lock()
	var victims []*tcpConn
	if p := t.pools[dst]; p != nil {
		for i, c := range p.conns {
			if c != nil {
				victims = append(victims, c)
				p.conns[i] = nil
			}
		}
	}
	victims = append(victims, t.routes[dst]...)
	delete(t.routes, dst)
	t.mu.Unlock()
	for _, tc := range victims {
		tc.c.Close()
	}
}

func (t *tcpTransport) close() error {
	t.stopOnce.Do(func() {
		close(t.done)
		t.listener.Close()
		t.mu.Lock()
		var victims []*tcpConn
		for _, p := range t.pools {
			for _, c := range p.conns {
				if c != nil {
					victims = append(victims, c)
				}
			}
		}
		// Every routed connection is an inbound one.
		for tc := range t.inbound {
			victims = append(victims, tc)
		}
		t.pools = map[string]*connPool{}
		t.routes = map[string][]*tcpConn{}
		t.mu.Unlock()
		for _, tc := range victims {
			tc.c.Close()
		}
	})
	return nil
}

// readMessage reads the connection's next message for dispatch.
func (t *tcpTransport) readMessage(br *bufio.Reader, scratch *[]byte) (*message, error) {
	for {
		n, err := readFrameLen(br)
		if err != nil {
			return nil, err
		}
		if n >= bulkFrameMin {
			if m, handled, err := t.class.readBulkAck(br, n); handled {
				if m == nil && err == nil {
					continue // a late or duplicate ack, dropped
				}
				return m, err
			}
		}
		m, err := readFrameBody(br, n, scratch)
		if cap(*scratch) > scratchCap {
			// An oversized frame grew the scratch; release it so the
			// next frame re-allocates at the normal chunk size.
			*scratch = nil
		}
		return m, err
	}
}

// bulkAckPeek is how much of a large frame readBulkAck looks at to
// find the payload: an ack's head is 20 bytes plus the sender's
// address, comfortably inside it (and inside every read buffer).
const bulkAckPeek = 512

// readBulkAck takes a successful bulk ack of n bytes off the wire with
// its payload read straight into the memory the initiator registered
// for it (claimLanding) — no frame scratch, no pooled copy. handled is
// false, with nothing consumed, when the frame is anything else. A
// late or duplicate ack has no region to fill any more: it is drained
// and dropped (nil message), never written anywhere.
func (c *Class) readBulkAck(br *bufio.Reader, n int) (m *message, handled bool, err error) {
	peek, err := br.Peek(min(bulkAckPeek, br.Size()))
	if err != nil {
		return nil, true, err
	}
	m = getMessage()
	d := codec.GetDecoder(peek)
	m.procHead(d.Proc())
	size := d.Uvarint()
	head := len(peek) - d.Remaining()
	isAck := d.Err() == nil && m.kind == msgBulkAck && m.status == 0 &&
		uint64(n) == uint64(head)+size+messageTailLen
	codec.PutDecoder(d)
	if !isAck {
		putMessage(m)
		return nil, false, nil
	}
	dst, ok := c.claimLanding(m.seq, size)
	if !ok {
		putMessage(m)
		_, err := br.Discard(n)
		return nil, true, err
	}
	// From here the initiator waits for a delivery, whatever happens
	// to the connection.
	var tail [messageTailLen]byte
	if _, err = br.Discard(head); err == nil {
		if _, err = io.ReadFull(br, dst); err == nil {
			_, err = io.ReadFull(br, tail[:])
		}
	}
	if err != nil {
		m.status, m.errmsg = 1, "connection lost mid-transfer"
		if !c.pending.deliver(m.seq, m) {
			putMessage(m)
		}
		return nil, true, err
	}
	d = codec.GetDecoder(tail[:])
	m.procTail(d.Proc())
	codec.PutDecoder(d)
	m.landed = true
	return m, true, nil
}

func readFrameLen(r io.Reader) (int, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	if n > maxFrame {
		return 0, fmt.Errorf("mercury: frame of %d bytes exceeds limit", n)
	}
	return n, nil
}

// readFrameBody reads an n-byte frame into *scratch (grown as needed,
// reused across frames) and decodes it into a pooled message.
func readFrameBody(r io.Reader, n int, scratch *[]byte) (*message, error) {
	// Grow the body buffer only as bytes actually arrive (doubling,
	// starting at one chunk): a hostile length prefix on a short
	// stream then costs at most one chunk of allocation, not an
	// up-front 64 MiB. Legitimate large frames converge to a single
	// persistent buffer, reused across frames.
	const frameChunk = 1 << 20
	if cap(*scratch) < n {
		alloc := n
		if alloc > frameChunk {
			alloc = frameChunk
		}
		if alloc > cap(*scratch) {
			*scratch = make([]byte, alloc)
		}
	}
	body := (*scratch)[:cap(*scratch)]
	read := 0
	for read < n {
		want := n - read
		if want > len(body)-read {
			want = len(body) - read
		}
		if want == 0 {
			grow := 2 * len(body)
			if grow > n {
				grow = n
			}
			nb := make([]byte, grow)
			copy(nb, body[:read])
			*scratch = nb
			body = nb
			continue
		}
		k, err := io.ReadFull(r, body[read:read+want])
		read += k
		if err != nil {
			return nil, err
		}
	}
	body = body[:n]
	m := getMessage()
	d := codec.GetDecoder(body)
	m.Proc(d.Proc())
	err := d.Finish()
	codec.PutDecoder(d)
	if err != nil {
		m.releasePayload()
		putMessage(m)
		return nil, err
	}
	return m, nil
}
