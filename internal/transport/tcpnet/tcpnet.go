// Package tcpnet is the real-network transport backend: p OS processes,
// one per PE, connected by a full TCP mesh. It implements transport.Conn,
// so the collectives of internal/coll — and with them the paper's
// Distributed and CentralizedGather samplers — run over actual sockets
// with wall-clock timing instead of the in-process simulator's virtual
// clocks.
//
// # Topology and cluster formation
//
// The cluster is a static rank-indexed peer list (the same list on every
// node). Each node listens on its own entry and opens one *directed*
// connection to every other peer: node i's dialed connection to j carries
// only i→j messages, while j→i traffic arrives on the connection j dialed.
// Directed links make connection establishment race-free by construction —
// there is no simultaneous-open tiebreak — and the only startup hazard
// left is dialing a peer whose listener is not up yet, which Dial absorbs
// by retrying with backoff until the formation deadline. A peer that
// re-dials (e.g. after a partial startup failure or a crash-restart)
// simply replaces its previous inbound connection.
//
// # Wire format
//
// Every connection starts with a fixed handshake frame identifying the
// protocol, the dialer's rank, and the expected cluster size; mismatches
// reject the connection. After the handshake the stream is a sequence of
// length-prefixed message frames:
//
//	u32 payload length | u32 tag | u32 cost-model words | u32 epoch | u32 CRC-32 (IEEE) of payload | payload
//
// Messages above the 64 MiB per-frame cap are written as a contiguous run
// of fragments (high bit set on the length word, CRC per fragment) and
// reassembled by the receiver, so message size is bounded only by a 1 GiB
// memory backstop, not by the framing. In the other direction, small
// same-destination messages coalesce (protocol v4): bit 30 of the length
// word marks a frame whose payload is a run of sub-messages
// [u32 tag | u32 words | u32 len | payload] sharing the frame's epoch and
// CRC, so a collective's burst of tiny sends to one peer costs one header
// and one checksum.
//
// (all little-endian). The payload is the transport wire codec's output
// (see internal/transport's wire.go and DESIGN.md §2.4, protocol v5): a
// one-byte static wire ID naming the payload type's registered binary
// codec, then that codec's encoding of the value. Each payload is
// self-contained, so Recv decodes lazily in (peer, tag) match order. The
// codecs encode float64 bit patterns and integers exactly, which is what
// makes a tcpnet sampling run produce byte-identical samples to a simnet
// run with the same seed. The CRC guards against
// corrupt or misframed streams: a mismatch poisons the transport rather
// than delivering a mangled payload to the sampler.
//
// # Send batching
//
// Send buffers frames on the per-peer link instead of flushing each
// message to the socket: a collective that issues many small sends to
// one peer (a gather of chunks, a run of reduce steps) reaches the wire
// as a handful of large writes. Two rules make this deadlock-free in
// SPMD lockstep code: Recv flushes every buffered link before blocking
// (a rank can never wait on a peer while holding traffic that peer
// needs), and the collectives flush at operation exit via
// transport.FlushConn (so a rank leaving its last collective — e.g. the
// shutdown broadcast — leaves nothing stranded in a buffer). Control
// frames (SendCtrl) flush immediately.
//
// # Semantics
//
// Send and Recv match messages by (peer, tag) through a per-node mailbox,
// exactly like the simulator. Work is a no-op (real computation takes real
// time) and Clock reports wall-clock nanoseconds since the transport came
// up. Stats counts this node's outgoing traffic: messages, declared
// cost-model words (comparable with simulated runs), and actual encoded
// bytes on the wire.
//
// # Fault tolerance (Config.RejoinTimeout > 0)
//
// By default a lost or corrupt connection permanently poisons receives
// from that peer — correct for the paper's reliable-PE model, fatal for
// long-lived deployments. With a RejoinTimeout the transport instead
// treats peer loss as a *recoverable fault* to be handled by the layer
// above (internal/nodesvc's resync protocol):
//
//   - Frames carry an epoch number. A resync advances the epoch
//     (AdvanceEpoch) and stale data frames from before the failure are
//     silently discarded, so a retried round never consumes messages of
//     its failed first attempt.
//   - Peer loss marks the peer down and interrupts blocked receives with
//     a typed *FaultError panic (satisfying transport.Fault) instead of
//     poisoning the mailbox; after the recovery protocol completes,
//     ClearFault re-arms the transport.
//   - Losing a link starts a background redial loop (bounded by
//     RejoinTimeout), so a crashed-and-restarted peer finds the
//     survivors dialing back in — which is exactly what its own Dial
//     needs to complete cluster formation again.
//   - A reserved tag carries control-plane messages (SendCtrl/RecvCtrl)
//     that bypass epoch filtering and (peer, tag) matching: the recovery
//     protocol runs over them while the data plane is suspended, and
//     their arrival wakes blocked receivers and CtrlNotify listeners.
package tcpnet

import (
	"bufio"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"reservoir/internal/transport"
)

const (
	handshakeMagic  = 0x52535654 // "RSVT"
	protocolVersion = 5          // v5: wire-ID-only payloads, no gob (v4: coalesced frames, v3: wire-codec payload discriminator, v2: epoch frame word, two-way handshake with incarnation)
	handshakeLen    = 21
	frameHeaderLen  = 20
	// maxFramePayload bounds one frame; larger messages are fragmented
	// across frames (fragFlag) and reassembled by the receiver, so the
	// cap is a streaming granularity, not a message size limit.
	maxFramePayload = 1 << 26 // 64 MiB
	// fragFlag marks a frame as a non-final fragment of a larger message
	// (set on the length header word; lengths stay below 1<<26).
	fragFlag = uint32(1) << 31
	// coalFlag marks a coalesced frame (protocol v4): the payload is a run
	// of sub-messages [u32 tag | u32 words | u32 len | payload] sharing the
	// frame's epoch and CRC. Small same-destination sends merge into one
	// frame, so a collective's burst of reduce steps costs one header and
	// one checksum instead of one per message.
	coalFlag = uint32(1) << 30
	// subHeaderLen is the per-sub-message header inside a coalesced frame.
	subHeaderLen = 12
	// coalMaxMsg bounds the bodies that ride the coalescing path; larger
	// messages gain nothing from sharing a header and are framed directly.
	coalMaxMsg = 4096
	// coalMaxBuf bounds one coalesced frame's payload; the pend buffer is
	// emitted into the link's write buffer when it grows past this.
	coalMaxBuf = 32 << 10
	// maxMessageBytes bounds one reassembled message — a memory backstop,
	// far above anything the samplers send. The encoder enforces the same
	// cap during encoding (transport.AppendPayload).
	maxMessageBytes  = transport.MaxPayloadBytes
	defaultFormation = 60 * time.Second
	// linkWriteBuffer sizes each outbound link's write buffer. Batched
	// small sends coalesce up to this many bytes into one syscall before
	// bufio spills; collective exits flush the remainder.
	linkWriteBuffer = 64 << 10

	// CtrlTag is the reserved tag of control-plane frames (recovery
	// handshakes). It is far outside the collective layer's sequential
	// tag space; control frames bypass epoch filtering and are received
	// through RecvCtrl rather than Recv.
	CtrlTag = 0x7fffffff
)

// FaultError is the recoverable-failure signal of a fault-tolerant
// transport: a peer connection was lost, or a control-plane message
// interrupted a blocked receive so the node can join a recovery round.
// Recv and Send panic with a *FaultError (satisfying transport.Fault);
// the serving layer recovers it and runs the resync protocol.
type FaultError struct {
	Rank int // the local rank observing the fault
	Peer int // the lost peer, or -1 for a control-message interrupt
	Msg  string
}

// Error implements error.
func (e *FaultError) Error() string { return e.Msg }

// TransportFault marks the error as recoverable (transport.Fault).
func (e *FaultError) TransportFault() {}

// Config describes one node's place in the cluster.
type Config struct {
	// Rank is this node's id in 0..len(Peers)-1.
	Rank int
	// Peers is the rank-indexed address list ("host:port"), identical on
	// every node. Peers[Rank] is this node's advertised address.
	Peers []string
	// Listen optionally overrides the local listen address (default:
	// ":port" of Peers[Rank], binding all interfaces).
	Listen string
	// Listener optionally provides a pre-bound listener (tests use this
	// with port 0 listeners); Listen is ignored when set.
	Listener net.Listener
	// FormationTimeout bounds cluster formation — dialing all peers and
	// receiving all inbound connections (default 60s).
	FormationTimeout time.Duration
	// RejoinTimeout enables fault tolerance: peer loss interrupts
	// receives with a recoverable *FaultError instead of poisoning the
	// mailbox, and a background redial loop tries to re-reach the peer
	// for this long (a crashed peer must restart within the window).
	// Zero keeps the strict reliable-PE semantics.
	RejoinTimeout time.Duration
	// Log receives connection lifecycle messages as structured records
	// (default: silent). The transport adds component/rank attrs.
	Log *slog.Logger
}

// Transport is one node's endpoint of the TCP mesh. It satisfies
// transport.Conn; see the package comment for semantics.
type Transport struct {
	rank, p int
	peers   []string
	start   time.Time
	ln      net.Listener
	log     *slog.Logger
	rejoin  time.Duration // > 0: fault-tolerant mode
	// incarnation identifies this transport instance in handshakes, so
	// peers can tell a crash-restarted node from a formation-race
	// re-dial (and avoid mutual redial storms).
	incarnation uint64

	box *mailbox

	mu        sync.Mutex
	out       []*link // rank-indexed outbound links; nil at own rank
	in        []net.Conn
	curIn     []net.Conn // rank-indexed current inbound conn (stale readers stay benign)
	redialing []bool     // rank-indexed: a redial loop is active
	inIncar   []uint64   // rank-indexed: incarnation behind curIn
	outIncar  []uint64   // rank-indexed: incarnation our out link reaches

	// perPeer holds rank-indexed outgoing-traffic counters (the entry at
	// our own rank stays zero). Stats sums them, so the aggregate and the
	// per-peer breakdown cannot drift apart; the /metrics surface reads
	// them directly via PeerStats.
	perPeer []peerCounter
	// flushNS accumulates wall time spent emitting staged coalesced runs
	// and draining link write buffers to the sockets (the round breakdown's
	// coalesce-flush phase).
	flushNS atomic.Int64
	// dirtyLinks counts links holding buffered unflushed frames — the
	// Flush fast path exits without touching any link mutex when zero.
	dirtyLinks atomic.Int32

	closeOnce sync.Once
	closed    chan struct{}
}

// link is one outbound (send-only) connection. dirty marks buffered
// bytes (staged sub-messages or framed writes) awaiting a flush (see the
// package comment's batching rules). pend stages small messages as
// coalesced-frame sub-messages until a flush point, a larger message, or
// an epoch change emits them; all messages to the peer pass through the
// same staging in send order, so FIFO delivery is preserved.
type link struct {
	peer      int // destination rank (per-peer byte accounting at emit time)
	mu        sync.Mutex
	conn      net.Conn
	w         *bufio.Writer
	dirty     bool
	pend      []byte
	pendCount int
	pendEpoch uint32
}

// peerCounter is one peer's outgoing-traffic counters. messages/words
// count at Send, bytes at framing time (framing overhead included),
// retries counts redial attempts after the link was lost.
type peerCounter struct {
	messages atomic.Int64
	words    atomic.Int64
	bytes    atomic.Int64
	retries  atomic.Int64
}

// PeerStats is a snapshot of one peer's outgoing-traffic counters
// (see peerCounter for the accounting points).
type PeerStats struct {
	Peer     int
	Messages int64
	Words    int64
	Bytes    int64
	Retries  int64
}

// PeerStats returns a rank-indexed snapshot of per-peer outgoing
// traffic; the entry at the local rank is zero. The /metrics endpoint
// exposes these as reservoir_transport_peer_* series.
func (t *Transport) PeerStats() []PeerStats {
	out := make([]PeerStats, t.p)
	for i := range out {
		pc := &t.perPeer[i]
		out[i] = PeerStats{
			Peer:     i,
			Messages: pc.messages.Load(),
			Words:    pc.words.Load(),
			Bytes:    pc.bytes.Load(),
			Retries:  pc.retries.Load(),
		}
	}
	return out
}

// Dial forms this node's side of the cluster: it starts listening, opens a
// directed connection to every peer (retrying while their listeners come
// up), and waits until every peer has connected back, so a returned
// Transport can immediately send to and receive from any rank.
func Dial(cfg Config) (*Transport, error) {
	p := len(cfg.Peers)
	if p < 1 {
		return nil, fmt.Errorf("tcpnet: empty peer list")
	}
	if cfg.Rank < 0 || cfg.Rank >= p {
		return nil, fmt.Errorf("tcpnet: rank %d outside peer list of %d", cfg.Rank, p)
	}
	logger := cfg.Log
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	t := &Transport{
		rank:        cfg.Rank,
		p:           p,
		peers:       append([]string(nil), cfg.Peers...),
		start:       time.Now(),
		log:         logger.With("component", "tcpnet", "rank", cfg.Rank),
		rejoin:      cfg.RejoinTimeout,
		incarnation: newIncarnation(),
		box:         newMailbox(),
		out:         make([]*link, p),
		perPeer:     make([]peerCounter, p),
		curIn:       make([]net.Conn, p),
		redialing:   make([]bool, p),
		inIncar:     make([]uint64, p),
		outIncar:    make([]uint64, p),
		closed:      make(chan struct{}),
	}
	t.box.rank = cfg.Rank
	t.box.ft = cfg.RejoinTimeout > 0
	if p == 1 {
		t.ln = cfg.Listener // no mesh needed; adopt the listener for Addr/Close
		return t, nil
	}

	ln := cfg.Listener
	if ln == nil {
		addr := cfg.Listen
		if addr == "" {
			_, port, err := net.SplitHostPort(cfg.Peers[cfg.Rank])
			if err != nil {
				return nil, fmt.Errorf("tcpnet: own peer entry %q: %w", cfg.Peers[cfg.Rank], err)
			}
			addr = ":" + port
		}
		var err error
		if ln, err = net.Listen("tcp", addr); err != nil {
			return nil, fmt.Errorf("tcpnet: listen %s: %w", addr, err)
		}
	}
	t.ln = ln

	timeout := cfg.FormationTimeout
	if timeout <= 0 {
		timeout = defaultFormation
	}
	deadline := time.Now().Add(timeout)

	// Inbound side: accept until every other rank has connected (and keep
	// accepting afterwards so a re-dialing peer can replace its link).
	inbound := make(chan int, p)
	go t.acceptLoop(inbound)

	// Outbound side: dial every peer concurrently, retrying while their
	// listeners come up.
	var wg sync.WaitGroup
	dialErrs := make([]error, p)
	for peer := 0; peer < p; peer++ {
		if peer == t.rank {
			continue
		}
		wg.Add(1)
		go func(peer int) {
			defer wg.Done()
			dialErrs[peer] = t.dialPeer(peer, cfg.Peers[peer], deadline)
		}(peer)
	}
	wg.Wait()
	for peer, err := range dialErrs {
		if err != nil {
			t.Close()
			return nil, fmt.Errorf("tcpnet: rank %d dialing peer %d: %w", t.rank, peer, err)
		}
	}

	// Wait for the full inbound mesh.
	seen := make([]bool, p)
	need := p - 1
	for need > 0 {
		select {
		case r := <-inbound:
			if !seen[r] {
				seen[r] = true
				need--
			}
		case <-time.After(time.Until(deadline)):
			t.Close()
			return nil, fmt.Errorf("tcpnet: rank %d: cluster formation timed out with %d inbound peer(s) missing", t.rank, need)
		case <-t.closed:
			return nil, fmt.Errorf("tcpnet: transport closed during formation")
		}
	}
	t.log.Info("mesh up", "p", p, "elapsed", time.Since(t.start).Round(time.Millisecond).String())
	return t, nil
}

// dialPeer opens the directed rank→peer connection, retrying with backoff
// until the peer's listener accepts or the formation deadline passes.
func (t *Transport) dialPeer(peer int, addr string, deadline time.Time) error {
	backoff := 50 * time.Millisecond
	for {
		conn, incar, err := t.dialOnce(peer, addr)
		if err == nil {
			t.installLink(peer, conn, incar)
			return nil
		}
		// The usual dial race at startup: the peer process exists but its
		// listener is not up yet (connection refused / reset / unreachable
		// host name in an orchestrated environment). Retry until the
		// formation deadline.
		select {
		case <-t.closed:
			return fmt.Errorf("transport closed")
		default:
		}
		if time.Now().Add(backoff).After(deadline) {
			return fmt.Errorf("no listener at %s before formation deadline: %w", addr, err)
		}
		time.Sleep(backoff)
		if backoff < time.Second {
			backoff *= 2
		}
	}
}

// newIncarnation draws a random transport-instance ID. Collisions across
// restarts of the same rank are what matters; 64 random bits make them
// negligible.
func newIncarnation() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return uint64(time.Now().UnixNano()) | 1
	}
	return binary.LittleEndian.Uint64(b[:]) | 1
}

// putHandshake fills one handshake frame: magic, version, rank, cluster
// size, incarnation.
func (t *Transport) putHandshake(hs *[handshakeLen]byte) {
	binary.LittleEndian.PutUint32(hs[0:4], handshakeMagic)
	hs[4] = protocolVersion
	binary.LittleEndian.PutUint32(hs[5:9], uint32(t.rank))
	binary.LittleEndian.PutUint32(hs[9:13], uint32(t.p))
	binary.LittleEndian.PutUint64(hs[13:21], t.incarnation)
}

// dialOnce makes one connection attempt: dial, send our handshake, and
// read the acceptor's reply (validating that the address really hosts the
// expected rank of this cluster). Returns the acceptor's incarnation.
func (t *Transport) dialOnce(peer int, addr string) (net.Conn, uint64, error) {
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, 0, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true) // collectives are latency-bound
	}
	fail := func(err error) (net.Conn, uint64, error) {
		conn.Close()
		return nil, 0, err
	}
	var hs [handshakeLen]byte
	t.putHandshake(&hs)
	if _, err := conn.Write(hs[:]); err != nil {
		// The peer's proxy/sidecar accepted the connect but reset before
		// it was ready: same startup race as a refused dial.
		return fail(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.ReadFull(conn, hs[:]); err != nil {
		return fail(fmt.Errorf("handshake reply: %w", err))
	}
	conn.SetReadDeadline(time.Time{})
	if m := binary.LittleEndian.Uint32(hs[0:4]); m != handshakeMagic {
		return fail(fmt.Errorf("handshake reply with bad magic %#x", m))
	}
	if v := hs[4]; v != protocolVersion {
		return fail(fmt.Errorf("handshake reply protocol version %d (want %d)", v, protocolVersion))
	}
	if r := int(binary.LittleEndian.Uint32(hs[5:9])); r != peer {
		return fail(fmt.Errorf("address %s hosts rank %d, expected %d", addr, r, peer))
	}
	if pp := int(binary.LittleEndian.Uint32(hs[9:13])); pp != t.p {
		return fail(fmt.Errorf("address %s belongs to a %d-node cluster, expected %d", addr, pp, t.p))
	}
	return conn, binary.LittleEndian.Uint64(hs[13:21]), nil
}

// installLink makes conn the current outbound link to peer (reaching the
// given peer incarnation), closing any previous one.
func (t *Transport) installLink(peer int, conn net.Conn, incar uint64) {
	t.mu.Lock()
	old := t.out[peer]
	t.out[peer] = &link{peer: peer, conn: conn, w: bufio.NewWriterSize(conn, linkWriteBuffer)}
	t.outIncar[peer] = incar
	t.mu.Unlock()
	if old != nil {
		// The replaced link's buffered frames die with it (the peer's old
		// incarnation is gone; fault-tolerant resync re-runs the round).
		old.mu.Lock()
		if old.dirty {
			old.dirty = false
			t.dirtyLinks.Add(-1)
		}
		old.mu.Unlock()
		old.conn.Close()
	}
}

// redialPeer starts (at most one) background redial loop for the directed
// link to peer, bounded by the rejoin window. Fault-tolerant mode only.
// Besides restoring this node's outbound link, the redial is what lets a
// crashed-and-restarted peer complete its own cluster formation: its Dial
// waits for an inbound connection from every survivor.
func (t *Transport) redialPeer(peer int) {
	if t.rejoin <= 0 || peer == t.rank {
		return
	}
	t.mu.Lock()
	if t.redialing[peer] {
		t.mu.Unlock()
		return
	}
	t.redialing[peer] = true
	t.mu.Unlock()
	go func() {
		defer func() {
			t.mu.Lock()
			t.redialing[peer] = false
			t.mu.Unlock()
		}()
		deadline := time.Now().Add(t.rejoin)
		backoff := 50 * time.Millisecond
		for {
			select {
			case <-t.closed:
				return
			default:
			}
			t.perPeer[peer].retries.Add(1)
			if conn, incar, err := t.dialOnce(peer, t.peers[peer]); err == nil {
				t.installLink(peer, conn, incar)
				t.log.Info("re-dialed peer", "peer", peer)
				return
			}
			if time.Now().Add(backoff).After(deadline) {
				t.log.Warn("giving up re-dialing peer", "peer", peer, "window", t.rejoin.String())
				return
			}
			time.Sleep(backoff)
			if backoff < time.Second {
				backoff *= 2
			}
		}
	}()
}

// Refresh synchronously ensures the outbound link to peer reaches the
// peer's *current* incarnation (as learned from its latest inbound
// handshake), dialing if necessary. The recovery protocol calls it for
// every peer that was marked down before re-arming the data plane: a
// data send racing the background redial could otherwise be buffered
// into the dead incarnation's connection and silently lost — TCP reports
// nothing until long after the write. Fault-tolerant mode only.
func (t *Transport) Refresh(peer int, deadline time.Time) error {
	if peer == t.rank || t.p == 1 {
		return nil
	}
	for {
		t.mu.Lock()
		fresh := t.out[peer] != nil && t.inIncar[peer] != 0 && t.outIncar[peer] == t.inIncar[peer]
		busy := t.redialing[peer]
		if !fresh && !busy {
			t.redialing[peer] = true // claim the per-peer dial slot
		}
		t.mu.Unlock()
		if fresh {
			return nil
		}
		select {
		case <-t.closed:
			return fmt.Errorf("tcpnet: rank %d: transport closed", t.rank)
		default:
		}
		if busy {
			// A background redial owns the slot; wait for its result.
			if time.Now().After(deadline) {
				return fmt.Errorf("tcpnet: rank %d: link to peer %d not refreshed in time", t.rank, peer)
			}
			time.Sleep(10 * time.Millisecond)
			continue
		}
		err := func() error {
			defer func() {
				t.mu.Lock()
				t.redialing[peer] = false
				t.mu.Unlock()
			}()
			conn, incar, err := t.dialOnce(peer, t.peers[peer])
			if err != nil {
				return err
			}
			t.installLink(peer, conn, incar)
			return nil
		}()
		if err == nil {
			// The handshake round-trip (with rank validation) proves a
			// live process at the peer's address accepted this link:
			// it now reaches the current incarnation even if that
			// incarnation's own dial-in has not been accepted yet (so
			// inIncar may lag — do not loop on it, or this would spin
			// re-dialing a peer still mid-formation).
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("tcpnet: rank %d: refreshing link to peer %d: %w", t.rank, peer, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// acceptLoop accepts inbound connections for the life of the transport,
// validates their handshake, and spawns a reader per peer. Replaced
// connections (a peer re-dialing) supersede the previous reader, whose
// conn keeps draining until EOF.
func (t *Transport) acceptLoop(inbound chan<- int) {
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			select {
			case <-t.closed:
			default:
				t.log.Warn("accept failed", "err", err)
			}
			return
		}
		go func(conn net.Conn) {
			conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			var hs [handshakeLen]byte
			if _, err := io.ReadFull(conn, hs[:]); err != nil {
				t.log.Warn("inbound handshake read failed", "err", err)
				conn.Close()
				return
			}
			conn.SetReadDeadline(time.Time{})
			if m := binary.LittleEndian.Uint32(hs[0:4]); m != handshakeMagic {
				t.log.Warn("inbound connection with bad magic", "magic", fmt.Sprintf("%#x", m))
				conn.Close()
				return
			}
			if v := hs[4]; v != protocolVersion {
				t.log.Warn("inbound protocol version mismatch", "got", v, "want", protocolVersion)
				conn.Close()
				return
			}
			from := int(binary.LittleEndian.Uint32(hs[5:9]))
			peerP := int(binary.LittleEndian.Uint32(hs[9:13]))
			if peerP != t.p || from < 0 || from >= t.p || from == t.rank {
				t.log.Warn("inbound peer claims foreign rank", "claimed_rank", from, "claimed_p", peerP, "p", t.p)
				conn.Close()
				return
			}
			incar := binary.LittleEndian.Uint64(hs[13:21])
			// Reply with our own handshake so the dialer can validate it
			// reached the right rank (and learn our incarnation).
			var reply [handshakeLen]byte
			t.putHandshake(&reply)
			if _, err := conn.Write(reply[:]); err != nil {
				t.log.Warn("inbound handshake reply failed", "err", err)
				conn.Close()
				return
			}
			if tc, ok := conn.(*net.TCPConn); ok {
				tc.SetNoDelay(true)
			}
			t.mu.Lock()
			t.in = append(t.in, conn)
			prev := t.curIn[from]
			t.curIn[from] = conn
			// A connection from an incarnation our outbound link has not
			// reached means the peer crash-restarted: our link points at
			// the dead incarnation, and the peer's own formation is
			// waiting for us to dial in — possibly before the old
			// connection's EOF gets processed, so waiting for that would
			// deadlock formation. Re-dial proactively. The incarnation
			// check is what prevents two live nodes from chasing each
			// other's replacement connections in an endless redial storm.
			needRedial := t.rejoin > 0 && prev != nil && t.inIncar[from] != incar && t.outIncar[from] != incar
			t.inIncar[from] = incar
			t.mu.Unlock()
			if prev != nil {
				prev.Close() // superseded by the peer's re-dial
			}
			if needRedial {
				t.redialPeer(from)
			}
			select {
			case inbound <- from:
			default:
			}
			t.readLoop(from, conn)
		}(conn)
	}
}

// readLoop reads message frames from one inbound connection into the
// mailbox until the connection closes. Framing or checksum violations —
// and the peer going away, whether by RST or clean FIN — fail receives
// from that peer: permanently (mailbox poisoning) in strict mode, or as a
// recoverable fault (peer marked down, redial started, blocked receives
// interrupted) in fault-tolerant mode. Receives from still-live peers
// (e.g. during an orderly staggered shutdown) stay valid either way. Only
// a locally-closed transport or a superseded (re-dialed) connection ends
// the loop benignly.
func (t *Transport) readLoop(from int, conn net.Conn) {
	r := bufio.NewReader(conn)
	var head [frameHeaderLen]byte
	var partial []byte // accumulates fragments of an oversized message
	for {
		if _, err := io.ReadFull(r, head[:]); err != nil {
			t.failFrom(from, conn, fmt.Errorf("tcpnet: rank %d: peer %d connection lost: %w", t.rank, from, err))
			return
		}
		lenWord := binary.LittleEndian.Uint32(head[0:4])
		n := lenWord &^ (fragFlag | coalFlag)
		frag := lenWord&fragFlag != 0
		coal := lenWord&coalFlag != 0
		tag := int(binary.LittleEndian.Uint32(head[4:8]))
		// head[8:12] is the sender's cost-model word count; traffic is
		// accounted sender-side, so the receiver does not store it.
		epoch := binary.LittleEndian.Uint32(head[12:16])
		sum := binary.LittleEndian.Uint32(head[16:20])
		if n > maxFramePayload {
			t.failFrom(from, conn, fmt.Errorf("tcpnet: rank %d: peer %d framed %d-byte payload (max %d)", t.rank, from, n, maxFramePayload))
			return
		}
		buf := grabBuf(int(n)) // recycled by the consumer after decode
		payload := *buf
		if _, err := io.ReadFull(r, payload); err != nil {
			t.failFrom(from, conn, fmt.Errorf("tcpnet: rank %d: reading %d-byte payload from peer %d: %w", t.rank, n, from, err))
			return
		}
		if got := crc32.ChecksumIEEE(payload); got != sum {
			t.failFrom(from, conn, fmt.Errorf("tcpnet: rank %d: CRC mismatch on message from peer %d tag %d (%#x != %#x)", t.rank, from, tag, got, sum))
			return
		}
		if frag || partial != nil {
			if coal {
				t.failFrom(from, conn, fmt.Errorf("tcpnet: rank %d: peer %d sent a fragmented coalesced frame", t.rank, from))
				return
			}
			partial = append(partial, payload...)
			releaseBuf(buf)
			buf = nil
			if len(partial) > maxMessageBytes {
				t.failFrom(from, conn, fmt.Errorf("tcpnet: rank %d: peer %d message exceeds %d-byte cap", t.rank, from, maxMessageBytes))
				return
			}
			if frag {
				continue
			}
			payload, partial = partial, nil
		}
		if coal {
			// Sub-message payloads alias the frame buffer and are consumed
			// at independent times, so the buffer leaves the pool's
			// ownership (buf token dropped; GC reclaims the blob once every
			// sub-message is decoded).
			if !t.putCoalesced(from, epoch, payload) {
				t.failFrom(from, conn, fmt.Errorf("tcpnet: rank %d: peer %d sent a malformed coalesced frame", t.rank, from))
				return
			}
			continue
		}
		if tag == CtrlTag {
			t.box.putCtrl(ctrlMsg{from: from, payload: payload, buf: buf})
			continue
		}
		t.box.put(inMsg{from: from, tag: tag, epoch: epoch, payload: payload, buf: buf})
	}
}

// putCoalesced unpacks one coalesced frame's sub-message run into the
// mailbox, preserving send order. Returns false on a malformed run.
func (t *Transport) putCoalesced(from int, epoch uint32, blob []byte) bool {
	for off := 0; off < len(blob); {
		if off+subHeaderLen > len(blob) {
			return false
		}
		tag := int(binary.LittleEndian.Uint32(blob[off : off+4]))
		// blob[off+4:off+8] is the sender's cost-model word count
		// (accounted sender-side, like the frame header's).
		n := int(binary.LittleEndian.Uint32(blob[off+8 : off+12]))
		off += subHeaderLen
		if n < 0 || off+n > len(blob) || tag == CtrlTag {
			return false // ctrl frames never coalesce; a CtrlTag sub-message is a framing bug
		}
		t.box.put(inMsg{from: from, tag: tag, epoch: epoch, payload: blob[off : off+n]})
		off += n
	}
	return true
}

// failFrom reacts to one inbound connection failing, unless this
// connection was superseded by the peer's re-dial (a stale reader must
// stay benign — the replacement link is healthy) or the transport is
// locally closed. In strict mode receives from the peer are poisoned; in
// fault-tolerant mode the peer is marked down (interrupting blocked
// receives recoverably) and a redial loop starts.
func (t *Transport) failFrom(from int, conn net.Conn, err error) {
	t.mu.Lock()
	stale := t.curIn[from] != conn
	t.mu.Unlock()
	select {
	case <-t.closed:
		return
	default:
	}
	if stale {
		return
	}
	if t.rejoin > 0 {
		t.log.Warn("peer faulted", "peer", from, "err", err)
		t.box.markDown(from, err)
		t.redialPeer(from)
		return
	}
	t.box.failPeer(from, err)
}

// --- transport.Conn --------------------------------------------------------

// ID implements transport.Conn.
func (t *Transport) ID() int { return t.rank }

// P implements transport.Conn.
func (t *Transport) P() int { return t.p }

// Send implements transport.Conn: encode the payload (its registered
// wire codec — see transport.AppendPayload) and buffer one
// framed message on the directed link to `to`; the frames reach the
// socket at the next flush point (Recv, collective exit, or the write
// buffer spilling). In fault-tolerant mode a write failure panics with
// a recoverable *FaultError (and starts a redial); in strict mode any
// failure is a fatal programming/deployment error.
func (t *Transport) Send(to, tag int, payload any, words int) {
	if words < 1 {
		words = 1
	}
	if to == t.rank {
		panic("tcpnet: send to self")
	}
	buf := grabBuf(0)
	*buf = transport.AppendPayload((*buf)[:0], payload)
	body := *buf
	// Bodies at or above the link's write buffer go straight through it
	// anyway; flush eagerly so only small sends ride the batching path
	// (a fragmented gather must never strand its tail in the buffer).
	if err := t.writeMessage(to, tag, words, body, len(body) >= linkWriteBuffer); err != nil {
		t.sendFailed(to, err)
	}
	releaseBuf(buf)
	t.perPeer[to].messages.Add(1)
	t.perPeer[to].words.Add(int64(words))
}

// sendFailed turns a write error into the mode-appropriate panic.
func (t *Transport) sendFailed(to int, err error) {
	if t.rejoin > 0 {
		t.box.markDown(to, err)
		t.redialPeer(to)
		panic(&FaultError{Rank: t.rank, Peer: to, Msg: fmt.Sprintf("tcpnet: rank %d sending to peer %d: %v", t.rank, to, err)})
	}
	// Strict mode: peer loss is unrecoverable but still a *transport*
	// failure — typed so serving layers can convert it to an orderly
	// shutdown while re-panicking real bugs.
	panic(&transport.FatalError{Rank: t.rank, Peer: to, Msg: fmt.Sprintf("tcpnet: rank %d sending to peer %d: %v", t.rank, to, err)})
}

// framedBytes is the on-the-wire size of one message body: the payload
// plus one frame header (length, tag, words, epoch, CRC) per fragment —
// what the Stats byte counter records (satellite of the codec work: the
// old counter omitted framing overhead entirely).
func framedBytes(body []byte) int64 {
	frames := (len(body) + maxFramePayload - 1) / maxFramePayload
	if frames == 0 {
		frames = 1 // empty bodies still cost one frame
	}
	return int64(len(body)) + int64(frames)*frameHeaderLen
}

// writeMessage stages or frames one message on the current link to `to`.
// Small data messages are staged into the link's coalesce buffer; control
// frames (flush set), larger bodies, and epoch changes first emit the
// staged run so per-link FIFO order survives. Socket flushes happen only
// when flush is set or the link's write buffer spills. Wire bytes are
// accounted here (at framing time), since a staged message's share of
// header bytes is only known once its coalesced frame is emitted.
func (t *Transport) writeMessage(to, tag, words int, body []byte, flush bool) error {
	t.mu.Lock()
	l := t.out[to]
	t.mu.Unlock()
	if l == nil {
		return fmt.Errorf("no link")
	}
	epoch := t.box.currentEpoch()
	l.mu.Lock()
	defer l.mu.Unlock()
	coalesce := !flush && tag != CtrlTag && len(body) <= coalMaxMsg
	if l.pendCount > 0 && (!coalesce || l.pendEpoch != epoch) {
		if err := l.emitPend(t); err != nil {
			return err
		}
	}
	if coalesce {
		if l.pendCount == 0 {
			l.pendEpoch = epoch
		}
		var sub [subHeaderLen]byte
		binary.LittleEndian.PutUint32(sub[0:4], uint32(tag))
		binary.LittleEndian.PutUint32(sub[4:8], uint32(words))
		binary.LittleEndian.PutUint32(sub[8:12], uint32(len(body)))
		l.pend = append(l.pend, sub[:]...)
		l.pend = append(l.pend, body...)
		l.pendCount++
		if len(l.pend) >= coalMaxBuf {
			if err := l.emitPend(t); err != nil {
				return err
			}
		}
		if !l.dirty {
			l.dirty = true
			t.dirtyLinks.Add(1)
		}
		return nil
	}
	if err := writeFrames(l.w, tag, words, epoch, body); err != nil {
		return err
	}
	t.perPeer[to].bytes.Add(framedBytes(body))
	if flush {
		if l.dirty {
			l.dirty = false
			t.dirtyLinks.Add(-1)
		}
		return l.w.Flush()
	}
	if !l.dirty {
		l.dirty = true
		t.dirtyLinks.Add(1)
	}
	return nil
}

// emitPend frames the link's staged sub-messages into its write buffer:
// a single staged message becomes a normal frame (no coalescing
// overhead), two or more become one coalesced frame sharing a header and
// CRC. The caller holds l.mu.
func (l *link) emitPend(t *Transport) error {
	if l.pendCount == 0 {
		return nil
	}
	var err error
	if l.pendCount == 1 {
		tag := int(binary.LittleEndian.Uint32(l.pend[0:4]))
		words := int(binary.LittleEndian.Uint32(l.pend[4:8]))
		body := l.pend[subHeaderLen:]
		err = writeFrames(l.w, tag, words, l.pendEpoch, body)
		t.perPeer[l.peer].bytes.Add(framedBytes(body))
	} else {
		err = writeCoalesced(l.w, l.pendEpoch, l.pend)
		t.perPeer[l.peer].bytes.Add(int64(len(l.pend)) + frameHeaderLen)
	}
	l.pend = l.pend[:0]
	l.pendCount = 0
	return err
}

// writeCoalesced writes one coalesced frame: the standard header with
// coalFlag set on the length word (tag and words are zero — each
// sub-message carries its own) and the staged sub-message run as payload,
// checksummed as one unit. The run stays below coalMaxBuf + coalMaxMsg,
// far under the fragmentation threshold.
func writeCoalesced(w io.Writer, epoch uint32, blob []byte) error {
	var head [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(head[0:4], uint32(len(blob))|coalFlag)
	binary.LittleEndian.PutUint32(head[4:8], 0)
	binary.LittleEndian.PutUint32(head[8:12], 0)
	binary.LittleEndian.PutUint32(head[12:16], epoch)
	binary.LittleEndian.PutUint32(head[16:20], crc32.ChecksumIEEE(blob))
	if _, err := w.Write(head[:]); err != nil {
		return err
	}
	_, err := w.Write(blob)
	return err
}

// Flush implements transport.Flusher: write out every buffered frame on
// every link. Recv calls it before blocking and the collectives call it
// (via transport.FlushConn) at operation exit; see the package comment
// for why those two points make batching deadlock-free. A flush failure
// is a send failure and panics accordingly.
func (t *Transport) Flush() {
	if t.dirtyLinks.Load() == 0 {
		return
	}
	start := time.Now()
	for peer := 0; peer < t.p; peer++ {
		t.mu.Lock()
		l := t.out[peer]
		t.mu.Unlock()
		if l == nil {
			continue
		}
		var err error
		l.mu.Lock()
		if l.dirty {
			l.dirty = false
			t.dirtyLinks.Add(-1)
			err = l.emitPend(t)
			if err == nil {
				err = l.w.Flush()
			}
		}
		l.mu.Unlock()
		if err != nil {
			t.sendFailed(peer, err)
		}
	}
	t.flushNS.Add(time.Since(start).Nanoseconds())
}

// FlushNS returns the accumulated wall time spent in Flush (coalesce
// emission plus socket drain) in nanoseconds.
func (t *Transport) FlushNS() int64 { return t.flushNS.Load() }

// writeFrames writes one message as one frame, or — above the per-frame
// cap — as a run of flagged fragments followed by a final unflagged frame.
// Fragments of one message are contiguous on the connection (the caller
// holds the link lock for the whole message), so the receiver reassembles
// by simple accumulation.
func writeFrames(w io.Writer, tag, words int, epoch uint32, body []byte) error {
	var head [frameHeaderLen]byte
	for {
		chunk := body
		flag := uint32(0)
		if len(chunk) > maxFramePayload {
			chunk = body[:maxFramePayload]
			flag = fragFlag
		}
		body = body[len(chunk):]
		binary.LittleEndian.PutUint32(head[0:4], uint32(len(chunk))|flag)
		binary.LittleEndian.PutUint32(head[4:8], uint32(tag))
		binary.LittleEndian.PutUint32(head[8:12], uint32(words))
		binary.LittleEndian.PutUint32(head[12:16], epoch)
		binary.LittleEndian.PutUint32(head[16:20], crc32.ChecksumIEEE(chunk))
		if _, err := w.Write(head[:]); err != nil {
			return err
		}
		if _, err := w.Write(chunk); err != nil {
			return err
		}
		if flag == 0 {
			return nil
		}
	}
}

// Recv implements transport.Conn: block for the (from, tag) message and
// decode its payload. Hard transport failures (closed mesh, CRC mismatch
// in strict mode, undecodable payload) panic fatally, mirroring the
// simulator's treatment of protocol violations as programming errors; in
// fault-tolerant mode recoverable faults panic with a *FaultError.
func (t *Transport) Recv(from, tag int) any {
	// Fast path: the message already arrived — deliver without touching
	// any link. Buffered sends stay staged until the next blocking Recv or
	// collective exit (transport.FlushConn), both of which flush, so the
	// deadlock-freedom argument is unchanged: a rank never *blocks*
	// holding traffic a peer may be waiting on.
	m, ok := t.box.tryGet(from, tag)
	if ok {
		return t.decodeMsg(from, tag, m)
	}
	t.Flush() // never block holding traffic a peer may be waiting on
	m, err := t.box.get(from, tag)
	if err != nil {
		var fe *FaultError
		if errors.As(err, &fe) {
			panic(fe)
		}
		panic(&transport.FatalError{Rank: t.rank, Peer: from, Msg: err.Error()})
	}
	return t.decodeMsg(from, tag, m)
}

// decodeMsg decodes one delivered message's payload and recycles its
// frame buffer.
func (t *Transport) decodeMsg(from, tag int, m inMsg) any {
	v, derr := transport.DecodePayload(m.payload)
	if derr != nil {
		// Undecodable payload: wire corruption (or a sender bug), fatal
		// either way, but transport-originated — typed for the serving
		// layer's recover triage.
		panic(&transport.FatalError{Rank: t.rank, Peer: from, Msg: fmt.Sprintf("tcpnet: rank %d decoding message from peer %d tag %d: %v", t.rank, from, tag, derr)})
	}
	releaseBuf(m.buf) // decoders copy out; the frame buffer is free again
	return v
}

// Work implements transport.Conn. Real computation takes real time, so
// there is no clock to advance.
func (t *Transport) Work(float64) {}

// Clock implements transport.Conn: wall-clock nanoseconds since Dial.
func (t *Transport) Clock() float64 { return float64(time.Since(t.start)) }

// Stats implements transport.StatsSource with this node's outgoing
// traffic — the sum of the per-peer counters.
func (t *Transport) Stats() transport.Stats {
	var s transport.Stats
	for i := range t.perPeer {
		pc := &t.perPeer[i]
		s.Messages += pc.messages.Load()
		s.Words += pc.words.Load()
		s.Bytes += pc.bytes.Load()
	}
	return s
}

// Pending returns the number of received-but-unclaimed messages (tests use
// it to detect leaks after a completed SPMD section).
func (t *Transport) Pending() int { return t.box.pending() }

// --- fault-tolerant control plane ------------------------------------------

// FaultTolerant reports whether the transport runs with recoverable
// fault semantics (Config.RejoinTimeout > 0).
func (t *Transport) FaultTolerant() bool { return t.rejoin > 0 }

// RejoinWindow returns the configured rejoin timeout.
func (t *Transport) RejoinWindow() time.Duration { return t.rejoin }

// Epoch returns the current epoch (advanced by each completed resync).
func (t *Transport) Epoch() uint64 { return uint64(t.box.currentEpoch()) }

// AdvanceEpoch moves the transport to epoch e and discards queued data
// messages of older epochs — the stale traffic of a failed round. Sends
// stamp the new epoch immediately.
func (t *Transport) AdvanceEpoch(e uint64) { t.box.advanceEpoch(uint32(e)) }

// ClearFault re-arms the transport after the recovery protocol completed:
// peers marked down stop interrupting receives. Control messages that
// arrived in the meantime still interrupt the next receive (they signal
// the next fault).
func (t *Transport) ClearFault() { t.box.clearDown() }

// DownPeers returns the ranks currently marked down, sorted.
func (t *Transport) DownPeers() []int { return t.box.downPeers() }

// CtrlNotify returns a channel that receives a pulse whenever a
// control-plane message arrives or a peer is marked down, so a node idle
// outside Recv (e.g. rank 0 waiting for client commands) can react to
// faults promptly.
func (t *Transport) CtrlNotify() <-chan struct{} { return t.box.notify }

// CtrlPending reports whether an unconsumed control-plane message is
// queued (a fault signal awaiting handling).
func (t *Transport) CtrlPending() bool { return t.box.ctrlPending() }

// SendCtrl transmits a control-plane message to a peer, retrying (and
// re-dialing) until it is written or the deadline passes. Control frames
// use the reserved CtrlTag and bypass epoch filtering; the recovery
// protocol is built on them.
func (t *Transport) SendCtrl(to int, payload any, deadline time.Time) error {
	if to == t.rank {
		return fmt.Errorf("tcpnet: ctrl send to self")
	}
	buf := grabBuf(0)
	defer releaseBuf(buf)
	*buf = transport.AppendPayload((*buf)[:0], payload)
	body := *buf
	for {
		select {
		case <-t.closed:
			return fmt.Errorf("tcpnet: rank %d: transport closed", t.rank)
		default:
		}
		// Control frames flush immediately: the recovery protocol must
		// make progress while the data plane (and its flush points) is
		// suspended.
		err := t.writeMessage(to, CtrlTag, 1, body, true)
		if err == nil {
			t.perPeer[to].messages.Add(1)
			t.perPeer[to].words.Add(1)
			return nil
		}
		t.redialPeer(to)
		if time.Now().After(deadline) {
			return fmt.Errorf("tcpnet: rank %d: ctrl send to peer %d: %w", t.rank, to, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// RecvCtrl blocks for the next control-plane message from any peer until
// the deadline. It consumes the message; stale data traffic is unaffected.
func (t *Transport) RecvCtrl(deadline time.Time) (from int, payload any, err error) {
	m, err := t.box.getCtrl(deadline)
	if err != nil {
		return 0, nil, err
	}
	v, err := transport.DecodePayload(m.payload)
	if err != nil {
		return 0, nil, fmt.Errorf("tcpnet: rank %d decoding ctrl message from peer %d: %w", t.rank, m.from, err)
	}
	releaseBuf(m.buf)
	return m.from, v, nil
}

// Close tears the mesh down. Blocked Recvs panic with a closed-transport
// error; the caller is expected to be done with collective work.
func (t *Transport) Close() error {
	t.closeOnce.Do(func() {
		close(t.closed)
		if t.ln != nil {
			t.ln.Close()
		}
		t.mu.Lock()
		for _, l := range t.out {
			if l != nil {
				l.conn.Close()
			}
		}
		for _, c := range t.in {
			c.Close()
		}
		t.mu.Unlock()
		t.box.fail(fmt.Errorf("tcpnet: rank %d: transport closed", t.rank))
	})
	return nil
}

// Addr returns the transport's bound listen address (useful with port-0
// listeners). Nil for single-node clusters.
func (t *Transport) Addr() net.Addr {
	if t.ln == nil {
		return nil
	}
	return t.ln.Addr()
}

// --- buffer pool -----------------------------------------------------------

// bufPool recycles encode buffers and inbound frame payload buffers.
// Encode buffers live for one Send; frame buffers travel through the
// mailbox as inMsg.buf and come back after the consumer decodes (every
// decoder copies the bytes out, so recycling cannot alias a delivered
// payload). Reassembled fragment runs and epoch-discarded messages are
// simply dropped for GC — pooling is a fast path, not an obligation.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// grabBuf returns a pooled buffer of length n (growing it as needed).
func grabBuf(n int) *[]byte {
	buf := bufPool.Get().(*[]byte)
	if cap(*buf) < n {
		*buf = make([]byte, n)
	} else {
		*buf = (*buf)[:n]
	}
	return buf
}

// releaseBuf returns a buffer to the pool; nil is a no-op (buffers that
// left the pooled path, e.g. reassembled fragments).
func releaseBuf(buf *[]byte) {
	if buf != nil {
		bufPool.Put(buf)
	}
}

// --- mailbox ---------------------------------------------------------------

type inMsg struct {
	from, tag int
	epoch     uint32
	payload   []byte
	buf       *[]byte // pool token; nil when payload is not poolable
}

type ctrlMsg struct {
	from    int
	payload []byte
	buf     *[]byte
}

// mailbox is the (sender, tag)-matching receive queue, the wire analogue
// of simnet's per-PE inbox. Failures are tracked per sender: a dead or
// corrupt link only dooms receives from that peer (already-delivered
// messages stay claimable), so during an orderly cluster shutdown a node
// that exits first does not break a survivor's receive from a still-live
// peer. A whole-mailbox failure (local transport close) fails everything.
//
// In fault-tolerant mode, peer failures are *recoverable*: a peer marked
// down — or a pending control-plane message — interrupts blocked data
// receives with a *FaultError once no matching message is queued, and
// data messages are additionally matched by epoch (stale epochs are
// discarded on arrival and on epoch advance).
type mailbox struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queue   []inMsg
	err     error
	peerErr map[int]error

	// Fault-tolerant state.
	ft     bool
	rank   int
	epoch  uint32
	ctrl   []ctrlMsg
	down   map[int]error
	notify chan struct{}
}

func newMailbox() *mailbox {
	b := &mailbox{
		peerErr: make(map[int]error),
		down:    make(map[int]error),
		notify:  make(chan struct{}, 1),
	}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *mailbox) put(m inMsg) {
	b.mu.Lock()
	if b.ft && m.epoch < b.epoch {
		b.mu.Unlock() // stale traffic of a failed, already-resynced round
		releaseBuf(m.buf)
		return
	}
	b.queue = append(b.queue, m)
	b.mu.Unlock()
	b.cond.Broadcast()
}

// tryGet claims a queued (from, tag) match without blocking (Recv's
// fast path: skip the flush sweep when the message already arrived).
func (b *mailbox) tryGet(from, tag int) (inMsg, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, m := range b.queue {
		if m.from == from && m.tag == tag && (!b.ft || m.epoch == b.epoch) {
			b.queue = append(b.queue[:i], b.queue[i+1:]...)
			return m, true
		}
	}
	return inMsg{}, false
}

func (b *mailbox) get(from, tag int) (inMsg, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		for i, m := range b.queue {
			if m.from == from && m.tag == tag && (!b.ft || m.epoch == b.epoch) {
				b.queue = append(b.queue[:i], b.queue[i+1:]...)
				return m, nil
			}
		}
		if b.err != nil {
			return inMsg{}, b.err
		}
		if b.ft {
			// A pending control message interrupts any blocked receive
			// (the coordinator is starting a resync; the data will never
			// come). A down peer interrupts only receives waiting on
			// *that* peer: a receive from a still-live peer stays valid —
			// its sender either delivers (e.g. the shutdown relay during
			// a staggered exit) or aborts and notifies the coordinator,
			// whose PREPARE then interrupts us through the control path.
			if len(b.ctrl) > 0 {
				return inMsg{}, &FaultError{Rank: b.rank, Peer: -1,
					Msg: fmt.Sprintf("tcpnet: rank %d: receive interrupted by a control message", b.rank)}
			}
			if perr := b.down[from]; perr != nil {
				return inMsg{}, &FaultError{Rank: b.rank, Peer: from,
					Msg: fmt.Sprintf("tcpnet: rank %d: receive interrupted, peer %d down: %v", b.rank, from, perr)}
			}
		} else if err := b.peerErr[from]; err != nil {
			return inMsg{}, err
		}
		b.cond.Wait()
	}
}

// fail poisons the whole mailbox: all blocked and future receives return
// err.
func (b *mailbox) fail(err error) {
	b.mu.Lock()
	if b.err == nil {
		b.err = err
	}
	b.mu.Unlock()
	b.cond.Broadcast()
	b.pulse()
}

// failPeer poisons receives from one sender: blocked and future receives
// from that peer return err once no matching message is queued. Strict
// (non-fault-tolerant) mode only.
func (b *mailbox) failPeer(from int, err error) {
	b.mu.Lock()
	if b.peerErr[from] == nil {
		b.peerErr[from] = err
	}
	b.mu.Unlock()
	b.cond.Broadcast()
}

// markDown records a recoverable peer failure and wakes blocked receivers
// and notify listeners.
func (b *mailbox) markDown(from int, err error) {
	b.mu.Lock()
	if b.down[from] == nil {
		b.down[from] = err
	}
	b.mu.Unlock()
	b.cond.Broadcast()
	b.pulse()
}

// clearDown re-arms data receives after a completed recovery.
func (b *mailbox) clearDown() {
	b.mu.Lock()
	b.down = make(map[int]error)
	b.mu.Unlock()
	b.cond.Broadcast()
}

func (b *mailbox) downPeers() []int {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]int, 0, len(b.down))
	for p := range b.down {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

func (b *mailbox) currentEpoch() uint32 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.epoch
}

// advanceEpoch raises the epoch and discards queued data messages from
// older epochs (traffic of failed rounds).
func (b *mailbox) advanceEpoch(e uint32) {
	b.mu.Lock()
	if e > b.epoch {
		b.epoch = e
		kept := b.queue[:0]
		for _, m := range b.queue {
			if m.epoch >= e {
				kept = append(kept, m)
			} else {
				releaseBuf(m.buf)
			}
		}
		b.queue = kept
	}
	b.mu.Unlock()
	b.cond.Broadcast()
}

// putCtrl queues a control-plane message, waking blocked data receivers
// (which abort with a recoverable interrupt) and notify listeners.
func (b *mailbox) putCtrl(m ctrlMsg) {
	b.mu.Lock()
	b.ctrl = append(b.ctrl, m)
	b.mu.Unlock()
	b.cond.Broadcast()
	b.pulse()
}

// getCtrl pops the next control message, waiting until the deadline.
func (b *mailbox) getCtrl(deadline time.Time) (ctrlMsg, error) {
	// The wake-up must hold b.mu: an unlocked Broadcast can land between
	// a waiter's deadline check and its cond.Wait registration and be
	// lost, leaving the waiter blocked past the deadline forever.
	timer := time.AfterFunc(time.Until(deadline), func() {
		b.mu.Lock()
		defer b.mu.Unlock()
		b.cond.Broadcast()
	})
	defer timer.Stop()
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		if len(b.ctrl) > 0 {
			m := b.ctrl[0]
			b.ctrl = b.ctrl[1:]
			return m, nil
		}
		if b.err != nil {
			return ctrlMsg{}, b.err
		}
		if !time.Now().Before(deadline) {
			return ctrlMsg{}, fmt.Errorf("tcpnet: rank %d: ctrl receive timed out", b.rank)
		}
		b.cond.Wait()
	}
}

// pulse makes CtrlNotify listeners runnable without blocking.
func (b *mailbox) pulse() {
	select {
	case b.notify <- struct{}{}:
	default:
	}
}

func (b *mailbox) pending() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.queue)
}

func (b *mailbox) ctrlPending() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.ctrl) > 0
}
