// Package transport defines the point-to-point messaging interface that
// the collective operations of internal/coll (and everything above them:
// distributed selection, the samplers, the public Cluster and Node APIs)
// are built on. A Conn is one processing element's endpoint: it sends and
// receives word-framed messages matched by (peer, tag), exactly the
// contract of an MPI-style receive queue.
//
// Two implementations exist:
//
//   - internal/simnet: the in-process simulator. All PEs are goroutines of
//     one process, messages pass by reference, and Send/Recv/Work drive
//     deterministic virtual clocks charging the paper's α+βℓ cost model.
//     (*simnet.PE satisfies Conn directly; no adapter is needed.)
//   - internal/transport/tcpnet: a real network. Each PE is its own OS
//     process, messages are encoded by the wire codec (wire.go) and framed
//     with a length prefix and CRC over TCP, and Clock reports wall time.
//
// Because the simulator passes payloads by reference while wire transports
// must serialize them, every payload type that crosses a wire transport
// needs a wire codec registered with RegisterMarshaler at package init.
// Encoding an unregistered type panics at the send site, naming the type.
package transport

// Conn is one PE's endpoint for point-to-point word-framed messages.
//
// Send and Recv match messages by (peer, tag); a Recv blocks until a
// message from the given peer with the given tag arrives. Tags are managed
// by the collective layer (one fresh tag range per collective operation),
// so SPMD lockstep code never receives a stale message. The words argument
// of Send is the message's size in 8-byte machine words under the paper's
// cost model; simulated transports charge α+β·words virtual time for it,
// wire transports record it in their traffic stats alongside the real
// byte count.
//
// Work and Clock expose the transport's notion of time: virtual
// nanoseconds on the simulator (Work advances the calling PE's clock; the
// samplers use it to charge local computation), wall-clock nanoseconds on
// real networks (where Work is a no-op because local computation takes
// actual time).
//
// A Conn is owned by one goroutine (its PE); none of the methods may be
// called concurrently with each other.
type Conn interface {
	// ID returns this PE's rank in 0..P()-1.
	ID() int
	// P returns the cluster size.
	P() int
	// Send transfers payload (words 8-byte machine words under the cost
	// model) to PE `to`, matched at the receiver by (this PE, tag).
	Send(to, tag int, payload any, words int)
	// Recv blocks until a message from `from` with the given tag arrives
	// and returns its payload.
	Recv(from, tag int) any
	// Work advances virtual time by ns nanoseconds of local computation
	// (no-op on wall-clock transports).
	Work(ns float64)
	// Clock returns this PE's current time in nanoseconds (virtual or
	// wall, depending on the transport).
	Clock() float64
}

// Stats aggregates a transport's traffic counters. On the simulator,
// Words is the cost-model word count and Bytes is Words*8; on wire
// transports, Words is the same cost-model count declared by the senders
// (so simulated and real runs are comparable) and Bytes is the actual
// encoded payload volume on the wire.
type Stats struct {
	Messages int64
	Words    int64
	Bytes    int64
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Messages += o.Messages
	s.Words += o.Words
	s.Bytes += o.Bytes
}

// StatsSource is implemented by transports that report traffic counters
// for their node (the public APIs use it to populate NetworkStats).
type StatsSource interface {
	Stats() Stats
}

// Fault marks a transport error as *recoverable*: the peer may come back
// (crash-restart) and the layer above can re-synchronize instead of
// aborting the run. Fault-tolerant transports panic with a Fault value
// from Send/Recv when a peer is lost mid-collective; serving layers
// recover it (see AsFault) and run their recovery protocol. Errors that
// do not implement Fault remain fatal.
type Fault interface {
	error
	TransportFault()
}

// AsFault extracts a Fault from a recovered panic value.
func AsFault(r any) (Fault, bool) {
	if r == nil {
		return nil, false
	}
	f, ok := r.(Fault)
	return f, ok
}

// FatalError is an *unrecoverable* transport failure: the mesh is closed,
// a frame failed its CRC in strict mode, a peer died on a strict (no
// rejoin) deployment. Transports panic with a *FatalError so the serving
// layer can distinguish "the network is gone, shut down in an orderly
// way" from a genuine programming bug unwinding the stack — the latter
// must never be converted into a routine error (see IsTransportPanic).
type FatalError struct {
	// Rank is the local PE that observed the failure; Peer is the remote
	// side, or -1 when the failure is not attributable to one peer.
	Rank, Peer int
	Msg        string
}

func (e *FatalError) Error() string { return e.Msg }

// IsTransportPanic reports whether a recovered panic value originated in
// the transport layer: a recoverable Fault or an unrecoverable
// *FatalError. Recovery boundaries in cluster code must re-panic
// anything else — a nil dereference in the sampler presenting as a
// routine transport failure would silently corrupt the run instead of
// crashing it.
func IsTransportPanic(r any) bool {
	if _, ok := r.(Fault); ok {
		return true
	}
	_, ok := r.(*FatalError)
	return ok
}
