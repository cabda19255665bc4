package transport

// The generic reliable stream layer: the same resumable link protocol
// sessions run over (endpoint in transport.go: per-direction sequence
// numbers, FNV-1a checksums, outbox replay, dedup/reorder windows, the
// reconnect/resume handshake) carrying opaque byte messages instead of
// round frames. A StreamServer accepts many independent client streams
// — each its own resumable session with its own token — which is what
// the distributed sweep fabric (internal/fabric) runs its
// coordinator↔worker links over: the same chaos hardening the protocol
// sessions get, reused for lease grants, heartbeats, and checkpoint
// records.
//
// Delivery contract: every payload handed to Send is delivered to the
// peer exactly once and in order, as long as the connection can be
// healed within the receiver's deadline; faults the resume handshake
// cannot heal surface as errors, never as loss, reorder, or
// duplication. faultinject.Injector plugs in via StreamConfig.Fault
// exactly as it does for sessions (first transmission only; replays
// bypass injection), so a chaos run over a stream is replayable from
// (seed, profile).

import (
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/faultinject"
)

// ErrStreamClosed is returned by stream operations after Close (or
// after an injected Kill crashed the endpoint).
var ErrStreamClosed = errors.New("transport: stream closed")

// ErrStreamStalled is returned by Recv when no in-order payload arrived
// within the deadline, recovery attempts included. The connection is
// poisoned before returning, so the next Recv (or the peer's resume)
// starts from a clean reconnect instead of a half-read gob stream.
var ErrStreamStalled = errors.New("transport: stream stalled past deadline")

// StreamConfig tunes one side of a reliable stream. The zero value is
// usable: every field falls back to the session transport's defaults.
type StreamConfig struct {
	// Timeout is the per-frame read/write deadline; zero means
	// DefaultRoundTimeout. Keep it above the expected gap between
	// incoming frames: a receiver that reads nothing for a full Timeout
	// tears the connection down and heals it by resume, which is
	// correct but costs a reconnect.
	Timeout time.Duration
	// DialTimeout bounds each client dial attempt; zero means Timeout.
	DialTimeout time.Duration
	// DialAttempts bounds the client connect/reconnect retry loop
	// (exponential backoff); zero means DefaultDialAttempts.
	DialAttempts int
	// ReconnectWait is how long the server side waits for a broken
	// client to resume before giving up a Recv; zero means Timeout/2.
	ReconnectWait time.Duration
	// MaxResumes bounds resume handshakes granted per stream; zero
	// means DefaultMaxResumes.
	MaxResumes int
	// Fault, when non-nil, is consulted on every sequenced frame's
	// first transmission, exactly like SessionConfig.Fault. Client
	// endpoints send DirClientToHost frames; server endpoints
	// DirHostToClient. The Party of both is the server-assigned
	// stream ID.
	Fault faultinject.Injector
	// Seed drives the server's session-token derivation (splitmix64 of
	// (Seed, stream ID)), so resume tokens replay deterministically.
	Seed int64
}

// withDefaults is the one defaulting of the link fields; sessions reach
// it through SessionConfig.link.
func (c StreamConfig) withDefaults() StreamConfig {
	if c.Timeout <= 0 {
		c.Timeout = DefaultRoundTimeout
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = c.Timeout
	}
	if c.DialAttempts <= 0 {
		c.DialAttempts = DefaultDialAttempts
	}
	if c.ReconnectWait <= 0 {
		c.ReconnectWait = c.Timeout / 2
	}
	if c.MaxResumes <= 0 {
		c.MaxResumes = DefaultMaxResumes
	}
	return c
}

// StreamConn is one end of a reliable, resumable byte-message stream.
// Send and Recv are safe for concurrent use with each other (one
// sender goroutine plus one receiver goroutine is the intended shape).
type StreamConn struct {
	*endpoint
}

// ID returns the server-assigned stream identifier (1-based).
func (sc *StreamConn) ID() int { return sc.party }

// Close tears the stream down. The peer sees the loss as a connection
// fault; a closed stream refuses resumes, so the peer's recovery fails
// rather than resurrecting it.
func (sc *StreamConn) Close() error {
	sc.shut()
	return nil
}

// Send transmits one payload reliably (Round 0).
func (sc *StreamConn) Send(payload []byte) error { return sc.SendAt(0, payload) }

// SendAt transmits one payload reliably, stamping the frame's Round so
// fault schedules can target application-level progress (the fabric
// stamps the worker's record ordinal, making "crash at round r" mean
// "crash while sending the r-th record"). An injected Kill closes the
// stream permanently and returns ErrKilled.
func (sc *StreamConn) SendAt(round int, payload []byte) error {
	if sc.isClosed() {
		return ErrStreamClosed
	}
	return sc.sendReliable(frame{Kind: kindData, ID: sc.party, Round: round, Output: payload})
}

// Recv returns the next in-order payload, healing the connection as
// needed (server: wait for the client's resume; client: redial and
// resume). The timeout bounds the whole operation including recovery;
// on expiry the connection is poisoned and ErrStreamStalled returned,
// so a later Recv starts from a clean resume.
func (sc *StreamConn) Recv(timeout time.Duration) ([]byte, error) {
	if sc.isClosed() {
		return nil, ErrStreamClosed
	}
	f, err := sc.recvReliable(time.Now().Add(timeout))
	if err != nil {
		if errors.Is(err, errBudget) {
			sc.breakAll("stall (stream deadline)")
			return nil, ErrStreamStalled
		}
		if errors.Is(err, errNoResume) {
			return nil, fmt.Errorf("%w: peer did not resume within %v", ErrStreamStalled, sc.cfg.ReconnectWait)
		}
		return nil, err
	}
	if f.Kind != kindData {
		return nil, fmt.Errorf("transport: stream %d: unexpected %v frame", sc.party, f.Kind)
	}
	return f.Output, nil
}

// StreamServer accepts reliable client streams on one listener and
// routes resume handshakes back to the stream they belong to.
type StreamServer struct {
	ln  net.Listener
	cfg StreamConfig

	acceptCh chan *StreamConn
	done     chan struct{}

	mu     sync.Mutex
	conns  map[int]*endpoint
	nextID int
	closed bool
}

// ListenStream starts a stream server on addr ("127.0.0.1:0" for an
// ephemeral test port).
func ListenStream(addr string, cfg StreamConfig) (*StreamServer, error) {
	cfg = cfg.withDefaults()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	s := &StreamServer{
		ln:       ln,
		cfg:      cfg,
		acceptCh: make(chan *StreamConn, 64),
		done:     make(chan struct{}),
		conns:    make(map[int]*endpoint),
	}
	go serveLinks(ln, cfg.Timeout, s.hello, s.lookup)
	return s, nil
}

// Addr returns the listener address.
func (s *StreamServer) Addr() string { return s.ln.Addr().String() }

// Accept returns the next fresh client stream, or an error when the
// timeout expires or the server closes. Streams already handed out are
// unaffected by either.
func (s *StreamServer) Accept(timeout time.Duration) (*StreamConn, error) {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case sc := <-s.acceptCh:
		return sc, nil
	case <-timer.C:
		return nil, fmt.Errorf("transport: accept timed out after %v", timeout)
	case <-s.done:
		return nil, ErrStreamClosed
	}
}

// Close stops accepting new streams. Streams already accepted stay
// usable until their own Close.
func (s *StreamServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.done)
	return s.ln.Close()
}

// hello opens a new stream: the server assigns the ID and token.
func (s *StreamServer) hello(_ frame, conn net.Conn, enc *gob.Encoder, dec *gob.Decoder) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = conn.Close()
		return
	}
	s.nextID++
	sc := &StreamConn{newServerEnd(s.nextID, s.cfg)}
	s.conns[sc.party] = sc.endpoint
	s.mu.Unlock()
	if sc.welcome(conn, enc, dec, frame{Kind: kindWelcome, ID: sc.party, Token: sc.token}) != nil {
		// The client redials its hello; this half-open stream is
		// abandoned (its ID is burned, never reused).
		return
	}
	select {
	case s.acceptCh <- sc:
	case <-s.done:
		_ = sc.Close()
	}
}

func (s *StreamServer) lookup(id int) *endpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.conns[id]
}

// DialStream opens a reliable client stream to a StreamServer: dial
// with bounded retry, hello, adopt the server-assigned ID and token.
func DialStream(addr string, cfg StreamConfig) (*StreamConn, error) {
	ep := newClientEnd(addr, 0, cfg.withDefaults())
	if err := ep.hello(); err != nil {
		return nil, err
	}
	return &StreamConn{ep}, nil
}
