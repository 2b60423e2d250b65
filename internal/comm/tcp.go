package comm

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"sync/atomic"
)

// TCPNetwork is the loopback socket transport. Each Endpoint opens a
// listener on 127.0.0.1:0 and registers its address in the shared
// registry. Sends are coalesced per destination: a peer's writer
// goroutine drains its outbound queue in batches, packing every queued
// message into one buffered write + single flush (so N messages cost
// O(1) syscalls under load), and redials once if the connection has gone
// stale. Framing is unchanged and per-message: [len u32][crc32 u32][body],
// crc over the body, both little-endian — the same bytes the old
// one-write-per-frame path produced. A frame that fails the CRC poisons
// the connection (closed and dropped), never the process.
type TCPNetwork struct {
	mu     sync.Mutex
	addrs  map[string]string
	eps    map[string]*tcpEndpoint
	closed bool

	coalMsgs    atomic.Uint64
	coalFlushes atomic.Uint64
	coalMax     atomic.Uint64
}

// CoalesceStats counts transport-level message coalescing: how many
// protocol messages were packed into how many flushed socket writes.
// Messages/Flushes is the mean batch size; MaxBatch the best window.
type CoalesceStats struct {
	Messages uint64 // messages written through peer writers
	Flushes  uint64 // buffered-writer flushes (≈ write syscalls)
	MaxBatch uint64 // most messages packed into one flush
}

// CoalesceStats reports cumulative coalescing counters across all
// endpoints of the network (survives endpoint replacement).
func (n *TCPNetwork) CoalesceStats() CoalesceStats {
	return CoalesceStats{
		Messages: n.coalMsgs.Load(),
		Flushes:  n.coalFlushes.Load(),
		MaxBatch: n.coalMax.Load(),
	}
}

func (n *TCPNetwork) noteFlush(batch int) {
	n.coalMsgs.Add(uint64(batch))
	n.coalFlushes.Add(1)
	for {
		cur := n.coalMax.Load()
		if uint64(batch) <= cur || n.coalMax.CompareAndSwap(cur, uint64(batch)) {
			return
		}
	}
}

// NewTCPNetwork creates an empty TCP loopback network.
func NewTCPNetwork() *TCPNetwork {
	return &TCPNetwork{addrs: make(map[string]string), eps: make(map[string]*tcpEndpoint)}
}

// Endpoint starts a listener for name, replacing any prior registration
// (the old listener is closed; peers redial the new address on their
// next send, which is exactly the crash-recovery rejoin path).
func (n *TCPNetwork) Endpoint(name string) (Endpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("comm: tcp listen: %w", err)
	}
	ep := &tcpEndpoint{
		net: n, name: name, ln: ln,
		peers:   make(map[string]*tcpPeer),
		inConns: make(map[net.Conn]struct{}),
	}
	ep.cond = sync.NewCond(&ep.mu)

	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		ln.Close()
		return nil, fmt.Errorf("comm: network: %w", ErrClosed)
	}
	if old := n.eps[name]; old != nil {
		old.shutdown()
	}
	n.addrs[name] = ln.Addr().String()
	n.eps[name] = ep
	n.mu.Unlock()

	go ep.acceptLoop()
	return ep, nil
}

// Close shuts every endpoint and forgets all addresses.
func (n *TCPNetwork) Close() error {
	n.mu.Lock()
	eps := make([]*tcpEndpoint, 0, len(n.eps))
	for _, ep := range n.eps {
		eps = append(eps, ep)
	}
	n.closed = true
	n.mu.Unlock()
	for _, ep := range eps {
		ep.shutdown()
	}
	return nil
}

func (n *TCPNetwork) addrOf(name string) (string, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return "", fmt.Errorf("comm: network: %w", ErrClosed)
	}
	addr, ok := n.addrs[name]
	if !ok {
		return "", fmt.Errorf("comm: %w %q", ErrUnknownPeer, name)
	}
	return addr, nil
}

type tcpEndpoint struct {
	net  *TCPNetwork
	name string
	ln   net.Listener

	mu      sync.Mutex
	cond    *sync.Cond
	inbox   []Message
	peers   map[string]*tcpPeer   // outbound coalescing queues, keyed by peer name
	inConns map[net.Conn]struct{} // accepted, closed on shutdown to unblock readers
	closed  bool
	wg      sync.WaitGroup // reader goroutines
	writers sync.WaitGroup // per-peer writer goroutines
}

func (e *tcpEndpoint) Name() string { return e.name }

func (e *tcpEndpoint) acceptLoop() {
	for {
		c, err := e.ln.Accept()
		if err != nil {
			return // listener closed
		}
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			c.Close()
			return
		}
		e.inConns[c] = struct{}{}
		e.wg.Add(1)
		e.mu.Unlock()
		go e.readLoop(c)
	}
}

func (e *tcpEndpoint) readLoop(c net.Conn) {
	defer e.wg.Done()
	defer func() {
		c.Close()
		e.mu.Lock()
		delete(e.inConns, c)
		e.mu.Unlock()
	}()
	// Buffered: the sender packs a batch of frames into one write, and an
	// unbuffered reader would pay two read syscalls per frame to take them
	// apart again.
	r := bufio.NewReaderSize(c, 64<<10)
	for {
		m, err := readFrame(r)
		if err != nil {
			return // EOF, poisoned frame, or connection closed
		}
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			return
		}
		e.inbox = append(e.inbox, m)
		e.cond.Signal()
		e.mu.Unlock()
	}
}

// Send validates the destination, then enqueues the encoded message on
// the peer's outbound queue. The peer's writer goroutine packs everything
// queued into one buffered write + flush; delivery is asynchronous and —
// like the old path after its Write returned — not guaranteed (the
// transport is unreliable by contract; the RPC layer re-sends).
func (e *tcpEndpoint) Send(to string, m Message) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return fmt.Errorf("comm: endpoint %s: %w", e.name, ErrClosed)
	}
	p := e.peers[to]
	if p == nil {
		// Fail fast for never-registered peers so callers can tell config
		// errors from transient unreachability.
		if _, err := e.net.addrOf(to); err != nil {
			e.mu.Unlock()
			return err
		}
		p = &tcpPeer{ep: e, to: to}
		p.cond = sync.NewCond(&p.mu)
		e.peers[to] = p
		e.writers.Add(1)
		go p.writeLoop()
	}
	e.mu.Unlock()
	p.enqueue(Encode(nil, m))
	return nil
}

// cachedConn exposes the peer's current outbound connection (tests
// poison it to exercise the CRC path).
func (e *tcpEndpoint) cachedConn(to string) net.Conn {
	e.mu.Lock()
	p := e.peers[to]
	e.mu.Unlock()
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.conn
}

// tcpPeer is one destination's outbound coalescing queue plus the writer
// goroutine that drains it.
type tcpPeer struct {
	ep *tcpEndpoint
	to string

	mu     sync.Mutex
	cond   *sync.Cond
	queue  [][]byte
	closed bool
	conn   net.Conn      // written only by the writer; closed by shutdown to unblock it
	bw     *bufio.Writer // wraps conn
}

func (p *tcpPeer) enqueue(body []byte) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return // endpoint shut down; queued traffic vanishes with it
	}
	p.queue = append(p.queue, body)
	p.cond.Signal()
	p.mu.Unlock()
}

func (p *tcpPeer) close() {
	p.mu.Lock()
	p.closed = true
	if p.conn != nil {
		p.conn.Close() // unblock a writer stuck in Write
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}

// writeLoop drains the queue in batches: whatever accumulated while the
// previous batch was being written goes out as one buffered write +
// single flush. Under load the batch grows with the syscall latency it
// amortizes; when idle a lone message flushes immediately.
func (p *tcpPeer) writeLoop() {
	defer p.ep.writers.Done()
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed {
			p.cond.Wait()
		}
		if p.closed {
			if p.conn != nil {
				p.conn.Close()
				p.conn, p.bw = nil, nil
			}
			p.mu.Unlock()
			return
		}
		batch := p.queue
		p.queue = nil
		p.mu.Unlock()
		p.writeBatch(batch)
	}
}

// writeBatch packs the batch into one flush. On a write error the
// connection is dropped and the whole batch retried once over a fresh
// dial — the peer may have restarted on a new address; frames are
// self-delimiting, so the receiver discards a torn prefix together with
// the dead connection, and a re-sent frame at worst duplicates (the
// participant layer dedups). A second failure drops the batch: the
// transport is unreliable by contract and the RPC layer re-sends.
func (p *tcpPeer) writeBatch(batch [][]byte) {
	for attempt := 0; attempt < 2; attempt++ {
		c, bw := p.current()
		if c == nil {
			addr, err := p.ep.net.addrOf(p.to)
			if err != nil {
				return
			}
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				return
			}
			if c, bw = p.adopt(nc); c == nil {
				nc.Close()
				return
			}
		}
		ok := true
		for _, body := range batch {
			if err := writeFrameTo(bw, body); err != nil {
				ok = false
				break
			}
		}
		if ok && bw.Flush() == nil {
			p.ep.net.noteFlush(len(batch))
			return
		}
		p.drop(c)
	}
}

func (p *tcpPeer) current() (net.Conn, *bufio.Writer) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.conn, p.bw
}

func (p *tcpPeer) adopt(c net.Conn) (net.Conn, *bufio.Writer) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, nil
	}
	p.conn = c
	p.bw = bufio.NewWriterSize(c, 64<<10)
	return p.conn, p.bw
}

func (p *tcpPeer) drop(c net.Conn) {
	c.Close()
	p.mu.Lock()
	if p.conn == c {
		p.conn, p.bw = nil, nil
	}
	p.mu.Unlock()
}

func (e *tcpEndpoint) Recv() (Message, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for len(e.inbox) == 0 && !e.closed {
		e.cond.Wait()
	}
	if len(e.inbox) == 0 {
		return Message{}, false
	}
	m := e.inbox[0]
	e.inbox = e.inbox[1:]
	return m, true
}

func (e *tcpEndpoint) Close() error {
	e.shutdown()
	return nil
}

func (e *tcpEndpoint) shutdown() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.inbox = nil
	peers := e.peers
	e.peers = nil
	in := make([]net.Conn, 0, len(e.inConns))
	for c := range e.inConns {
		in = append(in, c)
	}
	e.cond.Broadcast()
	e.mu.Unlock()

	e.ln.Close()
	for _, p := range peers {
		p.close()
	}
	for _, c := range in {
		c.Close()
	}
	e.writers.Wait()
	e.wg.Wait()
}

// writeFrame writes [len][crc][body] in one Write call. The coalescing
// writer uses writeFrameTo instead; this remains the reference encoding
// (and the tests' byte-identity oracle).
func writeFrame(c net.Conn, body []byte) error {
	frame := make([]byte, 8+len(body))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(body))
	copy(frame[8:], body)
	_, err := c.Write(frame)
	return err
}

// writeFrameTo streams the same [len][crc][body] bytes as writeFrame
// through a buffered writer, so many frames share one flush/syscall.
func writeFrameTo(w io.Writer, body []byte) error {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(body))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

const maxFrame = 1 << 20 // 1 MiB; protocol messages are tiny

func readFrame(r io.Reader) (Message, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Message{}, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	sum := binary.LittleEndian.Uint32(hdr[4:8])
	if n > maxFrame {
		return Message{}, fmt.Errorf("comm: tcp frame too large (%d bytes)", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return Message{}, err
	}
	if crc32.ChecksumIEEE(body) != sum {
		return Message{}, fmt.Errorf("comm: tcp frame crc mismatch")
	}
	return Decode(body)
}
