package fleet

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"wormcontain/internal/core"
	"wormcontain/internal/faultnet"
)

// Server answers WFP/1 exchanges for a node — the peer-facing side of
// the fleet. One goroutine per peer connection; connections are
// persistent and carry many request/response frames.
type Server struct {
	node *Node
	ln   net.Listener

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]bool
	wg     sync.WaitGroup
}

// NewServer returns a server for node listening on listenAddr (e.g.
// "127.0.0.1:0"). Wrap the returned server's listener operations with
// faultnet by passing a pre-built listener through NewServerWith.
func NewServer(node *Node, listenAddr string) (*Server, error) {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("fleet: listen: %w", err)
	}
	return NewServerWith(node, ln), nil
}

// NewServerWith returns a server answering on an existing listener —
// the injection point for faultnet.Listener wrapping.
func NewServerWith(node *Node, ln net.Listener) *Server {
	return &Server{node: node, ln: ln, conns: make(map[net.Conn]bool)}
}

// Serve accepts peer connections until Shutdown. Always returns a
// non-nil error; net.ErrClosed after Shutdown.
func (s *Server) Serve() error {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return net.ErrClosed
		}
		s.conns[conn] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Shutdown stops accepting, force-closes persistent peer connections
// (they carry no in-flight client payload — each frame is a complete
// exchange) and waits for handlers to drain.
func (s *Server) Shutdown() {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	for conn := range s.conns {
		_ = conn.Close()
	}
	s.mu.Unlock()
	if !already {
		if err := s.ln.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
			_ = err // listener is going away regardless
		}
	}
	s.wg.Wait()
}

// handle serves one peer connection: a frame loop with per-connection
// scratch buffers, so the steady state allocates nothing per exchange.
func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 4096)
	var (
		buf    []byte
		out    []byte
		alerts []core.Alert
		digest []OriginMax
	)
	for {
		var payload []byte
		var err error
		payload, buf, err = readFrame(br, buf)
		if err != nil {
			return
		}
		out = out[:0]
		switch payload[0] {
		case mObserve:
			src, dst, unixMs, perr := parseObserve(payload)
			if perr != nil {
				return
			}
			out = appendVerdictFrame(out, s.node.handleObserve(src, dst, unixMs))
		case mAlerts:
			alerts, err = parseAlerts(payload, alerts[:0])
			if err != nil {
				return
			}
			out = appendFreshFrame(out, s.node.handleAlerts(alerts))
		case mDigest:
			digest, err = parseDigest(payload, digest[:0])
			if err != nil {
				return
			}
			alerts = append(alerts[:0], s.node.handleDigest(digest)...)
			out = appendAlertsFrame(out, alerts)
		default:
			return // unknown type: protocol error, drop the connection
		}
		if _, err := conn.Write(out); err != nil {
			return
		}
	}
}

// TCPOptions parameterizes the client-side transport.
type TCPOptions struct {
	// Dial opens peer connections; nil means net.DialTimeout with
	// Timeout. Wrap with faultnet.Injector.Dial for chaos testing.
	Dial faultnet.DialFunc
	// Timeout bounds each exchange (dial + write + read); default 5s.
	Timeout time.Duration
}

// TCPTransport carries WFP/1 exchanges over persistent per-peer TCP
// connections. A failed exchange closes the peer's connection, so the
// next exchange redials — the reconnect policy is the caller's retry
// cadence (gossip re-ticks; forwards fall back to local counting).
type TCPTransport struct {
	opts TCPOptions

	mu    sync.Mutex
	peers map[string]*peerConn
}

// NewTCPTransport returns a transport that dials peers by their member
// name (which is therefore their host:port peer-listen address).
func NewTCPTransport(opts TCPOptions) *TCPTransport {
	if opts.Timeout <= 0 {
		opts.Timeout = 5 * time.Second
	}
	if opts.Dial == nil {
		timeout := opts.Timeout
		opts.Dial = func(network, address string) (net.Conn, error) {
			return net.DialTimeout(network, address, timeout)
		}
	}
	return &TCPTransport{opts: opts, peers: make(map[string]*peerConn)}
}

// peerConn is one persistent peer connection plus its scratch buffers.
// Exchanges on one peer are serialized by pc.mu; distinct peers
// proceed in parallel.
type peerConn struct {
	mu   sync.Mutex
	conn net.Conn
	br   *bufio.Reader
	out  []byte
	buf  []byte
}

// get returns the peer's connection holder, creating it on first use.
func (t *TCPTransport) get(peer string) *peerConn {
	t.mu.Lock()
	defer t.mu.Unlock()
	pc := t.peers[peer]
	if pc == nil {
		pc = &peerConn{}
		t.peers[peer] = pc
	}
	return pc
}

// Close drops every cached connection.
func (t *TCPTransport) Close() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, pc := range t.peers {
		pc.mu.Lock()
		if pc.conn != nil {
			_ = pc.conn.Close()
			pc.conn = nil
			pc.br = nil
		}
		pc.mu.Unlock()
	}
}

// exchange sends the frame in pc.out and reads one response frame.
// Caller holds pc.mu and has filled pc.out.
func (t *TCPTransport) exchange(peer string, pc *peerConn) ([]byte, error) {
	if pc.conn == nil {
		conn, err := t.opts.Dial("tcp", peer)
		if err != nil {
			return nil, err
		}
		pc.conn = conn
		if pc.br == nil {
			pc.br = bufio.NewReaderSize(conn, 4096)
		} else {
			pc.br.Reset(conn)
		}
	}
	drop := func(err error) ([]byte, error) {
		_ = pc.conn.Close()
		pc.conn = nil
		return nil, err
	}
	if err := pc.conn.SetDeadline(time.Now().Add(t.opts.Timeout)); err != nil {
		return drop(err)
	}
	if _, err := pc.conn.Write(pc.out); err != nil {
		return drop(err)
	}
	payload, buf, err := readFrame(pc.br, pc.buf)
	pc.buf = buf
	if err != nil {
		return drop(err)
	}
	return payload, nil
}

// observe implements Transport — the forward hot path.
func (t *TCPTransport) observe(peer string, src, dst uint32, unixMs int64) (core.Decision, error) {
	pc := t.get(peer)
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.out = appendObserveFrame(pc.out[:0], src, dst, unixMs)
	payload, err := t.exchange(peer, pc)
	if err != nil {
		return 0, err
	}
	return parseVerdict(payload)
}

// sendAlerts implements Transport.
func (t *TCPTransport) sendAlerts(peer string, alerts []core.Alert) (int, error) {
	if len(alerts) > maxAlertsPerFrame {
		alerts = alerts[:maxAlertsPerFrame]
	}
	pc := t.get(peer)
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.out = appendAlertsFrame(pc.out[:0], alerts)
	payload, err := t.exchange(peer, pc)
	if err != nil {
		return 0, err
	}
	return parseFresh(payload)
}

// syncDigest implements Transport.
func (t *TCPTransport) syncDigest(peer string, digest []OriginMax) ([]core.Alert, error) {
	if len(digest) > maxOriginsPerFrame {
		digest = digest[:maxOriginsPerFrame]
	}
	pc := t.get(peer)
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.out = appendDigestFrame(pc.out[:0], digest)
	payload, err := t.exchange(peer, pc)
	if err != nil {
		return nil, err
	}
	if len(payload) == 0 || payload[0] != mAlerts {
		return nil, fmt.Errorf("fleet: unexpected digest response")
	}
	return parseAlerts(payload, nil)
}

// Interface conformance is pinned at compile time.
var (
	_ Transport = (*TCPTransport)(nil)
	_ Transport = (*memLink)(nil)
)
