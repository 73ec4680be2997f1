// Package faultnet is a deterministic fault-injecting wrapper around any
// transport.Conn: it subjects every point-to-point message to a seeded
// schedule of drops, delays, duplicates, corruptions, and partition
// windows, while guaranteeing that the receiver still delivers exactly
// the sender's payload sequence. It is the repeatable half of the chaos
// toolkit: where scripts/chaos_cluster.sh kills real processes, faultnet
// reproduces every network failure mode in-process, bit-for-bit, over
// both the simulator (internal/simnet) and the real network
// (internal/transport/tcpnet).
//
// # Protocol
//
// Each logical Send is wrapped in an envelope carrying a per-destination
// sequence number. The seeded schedule then decides the message's fate:
//
//   - drop: the copy is lost in transit (nothing reaches the wire); the
//     sender "times out" and retransmits. Modeled as a charged retransmit
//     delay followed by the next copy.
//   - corrupt: the copy reaches the receiver mangled (Corrupt envelope);
//     the receiver's integrity check discards it, and the sender
//     retransmits — the wire analogue of tcpnet's CRC rejection.
//   - duplicate: the good copy is sent twice; the receiver deduplicates
//     by sequence number.
//   - delay: the message is charged DelayNS before transmission
//     (virtual time via Conn.Work on the simulator; optionally a real
//     time.Sleep on wall-clock transports).
//   - partition: sends to a peer whose schedule window covers the
//     message index are deferred (charged like delays) and then
//     delivered — a healed partition, not a permanent one, because the
//     SPMD collectives deadlock under permanent loss by design.
//
// Because a good copy is always transmitted eventually and the receiver
// discards corrupt and duplicate copies, the delivered payload sequence
// is identical to a fault-free run: fault schedules change only
// latencies and retry counts, never the sampling result. The
// faultnet equivalence tests pin exactly that property. One modeling
// artifact follows from lazy (receive-time) discarding: a redundant copy
// of the final message on a (peer, tag) stream can stay unclaimed in the
// receiver's mailbox, so the usual "no pending messages after an SPMD
// section" invariant does not hold under fault injection.
//
// Fault injection composes with fault *tolerance* only loosely: faultnet
// assumes the peer set is fixed for its lifetime (sequence numbers are
// per-incarnation), so it is not meant to wrap a transport whose peers
// crash and rejoin mid-run — use process-level chaos
// (scripts/chaos_cluster.sh) for that failure class.
//
// The schedule is deterministic: every (sender, destination) pair owns a
// dedicated PRNG seeded from Config.Seed, the sender's rank, and the
// destination rank, so a given seed reproduces the identical fault
// pattern regardless of timing, scheduling, or transport backend.
package faultnet

import (
	"fmt"
	"time"

	"reservoir/internal/rng"
	"reservoir/internal/transport"
)

// Partition defers sends to Peer while the per-destination message index
// lies in the half-open window [From, To) — a temporary network partition
// that heals at To. Indexes count logical messages (Send calls) to that
// peer, starting at 1.
type Partition struct {
	Peer     int
	From, To uint64
}

// Config is a fault schedule. All probabilities are per logical message
// and independent; zero values inject nothing.
type Config struct {
	// Seed drives the deterministic schedule (combined with the local
	// rank and the destination rank per directed pair).
	Seed uint64
	// Drop is the probability a transmitted copy is lost and must be
	// retransmitted after a timeout.
	Drop float64
	// Corrupt is the probability a transmitted copy arrives mangled and
	// is discarded by the receiver's integrity check.
	Corrupt float64
	// Duplicate is the probability the good copy is transmitted twice.
	Duplicate float64
	// Delay is the probability a message is delayed by DelayNS before
	// transmission.
	Delay float64
	// DelayNS is the latency charged per delay, per drop timeout, and
	// per partition deferral (default 1ms worth of nanoseconds).
	DelayNS float64
	// WallDelay additionally sleeps DelayNS of real time per charged
	// delay — only useful on wall-clock transports, where Conn.Work is a
	// no-op. Keep it off for virtual-time simulations.
	WallDelay bool
	// MaxRetries bounds consecutive drop/corrupt retransmissions of one
	// message so pathological schedules still terminate (default 16).
	MaxRetries int
	// Partitions lists temporary partition windows (see Partition).
	Partitions []Partition
}

// Stats counts injected faults and receiver-side discards. Retransmits
// counts the extra transmissions forced by drops and corruptions;
// Deferred counts sends delayed by a partition window.
type Stats struct {
	Sent        int64 // logical messages submitted by the application
	Dropped     int64 // copies lost in transit (sender retransmitted)
	Corrupted   int64 // copies delivered mangled (receiver discarded)
	Duplicated  int64 // good copies transmitted twice
	Delayed     int64 // messages charged a transmission delay
	Deferred    int64 // messages deferred by a partition window
	Retransmits int64
	Discarded   int64 // receiver-side discards (corrupt or duplicate copies)
}

// envelope frames one copy of a logical message on the underlying
// transport. A Corrupt envelope carries no payload — it models a copy
// the receiver's integrity check rejects.
type envelope struct {
	Seq     uint64
	Corrupt bool
	Payload any
}

// The envelope's wire codec nests the wrapped payload's own encoding,
// so an envelope around a gather chunk costs a few header bytes on top
// of the chunk's own codec.
func init() {
	transport.RegisterMarshaler(transport.WireIDEnvelope,
		func(buf []byte, v envelope) []byte {
			buf = transport.AppendUvarint(buf, v.Seq)
			buf = transport.AppendBool(buf, v.Corrupt)
			buf = transport.AppendBool(buf, v.Payload != nil)
			if v.Payload != nil {
				buf = transport.AppendPayload(buf, v.Payload)
			}
			return buf
		},
		func(d *transport.Dec) (envelope, error) {
			v := envelope{Seq: d.Uvarint(), Corrupt: d.Bool()}
			hasPayload := d.Bool()
			if err := d.Err(); err != nil {
				return envelope{}, err
			}
			if hasPayload {
				p, err := d.Payload()
				if err != nil {
					return envelope{}, err
				}
				v.Payload = p
			}
			return v, nil
		})
}

type pairTag struct{ from, tag int }

// Conn wraps a transport.Conn with fault injection. Like every
// transport.Conn it is owned by a single goroutine; it must wrap the
// endpoint of every PE that communicates with a faulty peer — in
// practice, wrap all endpoints of the cluster with the same Config.
type Conn struct {
	inner transport.Conn
	cfg   Config

	rngs    []*rng.Xoshiro256 // per-destination schedule PRNGs
	sendSeq []uint64          // per-destination logical message counter
	lastSeq map[pairTag]uint64

	stats Stats
}

var _ transport.Conn = (*Conn)(nil)

// New wraps conn with the given fault schedule.
func New(conn transport.Conn, cfg Config) *Conn {
	if cfg.DelayNS <= 0 {
		cfg.DelayNS = 1e6 // 1ms
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 16
	}
	p := conn.P()
	c := &Conn{
		inner:   conn,
		cfg:     cfg,
		rngs:    make([]*rng.Xoshiro256, p),
		sendSeq: make([]uint64, p),
		lastSeq: make(map[pairTag]uint64),
	}
	for to := 0; to < p; to++ {
		c.rngs[to] = rng.NewXoshiro256(rng.Mix64(
			cfg.Seed ^ 0x9e3779b97f4a7c15*uint64(conn.ID()+1) ^ 0xbf58476d1ce4e5b9*uint64(to+1)))
	}
	return c
}

// ID implements transport.Conn.
func (c *Conn) ID() int { return c.inner.ID() }

// P implements transport.Conn.
func (c *Conn) P() int { return c.inner.P() }

// Work implements transport.Conn.
func (c *Conn) Work(ns float64) { c.inner.Work(ns) }

// Clock implements transport.Conn.
func (c *Conn) Clock() float64 { return c.inner.Clock() }

// charge applies one scheduled latency penalty.
func (c *Conn) charge() {
	c.inner.Work(c.cfg.DelayNS)
	if c.cfg.WallDelay {
		time.Sleep(time.Duration(c.cfg.DelayNS))
	}
}

// partitioned reports whether message index idx to peer falls in a
// partition window.
func (c *Conn) partitioned(peer int, idx uint64) bool {
	for _, p := range c.cfg.Partitions {
		if p.Peer == peer && idx >= p.From && idx < p.To {
			return true
		}
	}
	return false
}

// Send implements transport.Conn: submit one logical message to the
// fault schedule. At least one good copy always reaches the underlying
// transport.
func (c *Conn) Send(to, tag int, payload any, words int) {
	c.stats.Sent++
	c.sendSeq[to]++
	seq := c.sendSeq[to]
	r := c.rngs[to]

	if c.partitioned(to, seq) {
		// Deferred behind the partition: charged like a delay, delivered
		// once the window heals.
		c.stats.Deferred++
		c.charge()
	}
	if c.cfg.Delay > 0 && rng.U01(r) < c.cfg.Delay {
		c.stats.Delayed++
		c.charge()
	}
	good := envelope{Seq: seq, Payload: payload}
	for retries := 0; retries < c.cfg.MaxRetries; retries++ {
		roll := rng.U01(r)
		if roll < c.cfg.Drop {
			// Copy lost in transit: nothing on the wire; the sender's
			// retransmission timer fires and the loop sends again.
			c.stats.Dropped++
			c.stats.Retransmits++
			c.charge()
			continue
		}
		if roll < c.cfg.Drop+c.cfg.Corrupt {
			// Copy arrives mangled: the receiver discards it (tcpnet
			// would reject the CRC), and the sender retransmits.
			c.inner.Send(to, tag, envelope{Seq: seq, Corrupt: true}, words)
			c.stats.Corrupted++
			c.stats.Retransmits++
			c.charge()
			continue
		}
		break
	}
	c.inner.Send(to, tag, good, words)
	if c.cfg.Duplicate > 0 && rng.U01(r) < c.cfg.Duplicate {
		c.inner.Send(to, tag, good, words)
		c.stats.Duplicated++
	}
}

// Recv implements transport.Conn: deliver the next logical message from
// (from, tag), discarding corrupt copies and duplicates. Sequence
// numbers along one (from, tag) stream are strictly increasing and the
// underlying mailbox is FIFO per stream, so a copy whose sequence number
// does not exceed the last delivered one is a duplicate.
func (c *Conn) Recv(from, tag int) any {
	key := pairTag{from, tag}
	for {
		m := c.inner.Recv(from, tag)
		env, ok := m.(envelope)
		if !ok {
			panic(fmt.Sprintf("faultnet: rank %d received a bare message from peer %d tag %d (peer not wrapped in faultnet?)",
				c.ID(), from, tag))
		}
		if env.Corrupt {
			c.stats.Discarded++
			continue
		}
		if last, seen := c.lastSeq[key]; seen && env.Seq <= last {
			c.stats.Discarded++
			continue
		}
		c.lastSeq[key] = env.Seq
		return env.Payload
	}
}

// Flush implements transport.Flusher by delegating to the underlying
// transport's send batching (fault injection itself never buffers: every
// scheduled copy is submitted inline from Send).
func (c *Conn) Flush() { transport.FlushConn(c.inner) }

// FaultStats returns the fault counters accumulated so far.
func (c *Conn) FaultStats() Stats { return c.stats }

// Stats implements transport.StatsSource by delegating to the underlying
// transport when it reports traffic counters (retransmitted and
// duplicated copies are real traffic and show up there).
func (c *Conn) Stats() transport.Stats {
	if s, ok := c.inner.(transport.StatsSource); ok {
		return s.Stats()
	}
	return transport.Stats{}
}

// Close closes the underlying transport when it is closable.
func (c *Conn) Close() error {
	if cl, ok := c.inner.(interface{ Close() error }); ok {
		return cl.Close()
	}
	return nil
}
