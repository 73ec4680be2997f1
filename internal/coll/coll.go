// Package coll implements the collective communication operations of the
// paper's machine model (Sec 3, "Collective Communication") on top of the
// point-to-point transport.Conn interface:
//
//   - Broadcast, Reduce, AllReduce in O(βℓ + α log p) time,
//   - Gather in O(βpℓ + α log p) time,
//
// using binomial trees and, for AllReduce on power-of-two sub-clusters, a
// butterfly (hypercube) exchange. All operations are SPMD: every PE of the
// communicator must call the same sequence of collectives; a per-communicator
// operation counter generates matching message tags.
//
// The collectives run unchanged over any transport backend: the in-process
// simulator (internal/simnet, deterministic virtual clocks charging the
// α+βℓ cost model) or a real network (internal/transport/tcpnet, one OS
// process per PE). The word counts passed to each collective feed the cost
// model on simulated transports and the traffic counters on all of them,
// so reported communication reflects exactly what the algorithms send.
// internal/core's samplers and internal/distsel's selection algorithms run
// entirely on top of this package.
package coll

import "reservoir/internal/transport"

// Comm is a communicator: one PE's handle for participating in collectives
// over the whole cluster. Communicators on different PEs stay in lockstep
// because SPMD code issues the same operations in the same order. All
// collectives issued against the same underlying Conn must go through the
// same Comm (the shared operation counter is what keeps tags unique).
type Comm struct {
	Conn transport.Conn
	p    int
	seq  int
}

// New returns a communicator for the given transport endpoint spanning all
// p PEs of its cluster.
func New(conn transport.Conn) *Comm {
	return &Comm{Conn: conn, p: conn.P()}
}

// P returns the number of PEs in the communicator.
func (c *Comm) P() int { return c.p }

// Rank returns the calling PE's rank.
func (c *Comm) Rank() int { return c.Conn.ID() }

// nextTag returns a fresh tag for one collective operation instance.
// Collectives may use up to tagStride distinct tags internally.
const tagStride = 4

func (c *Comm) nextTag() int {
	t := c.seq * tagStride
	c.seq++
	return t
}

// Reset rewinds the communicator's operation counter, so the next
// collective reuses the tag sequence from the beginning. It is only safe
// when every PE of the cluster resets in lockstep with no collective in
// flight and no undelivered messages of the old sequence — exactly the
// state the transport layer's epoch-based recovery establishes after a
// failed round (stale-epoch messages are discarded, so reused tags
// cannot match them). Outside recovery, never call this.
func (c *Comm) Reset() { c.seq = 0 }

// Op is an associative combining function. Collectives apply it in rank
// order (op(lower-rank acc, higher-rank acc)), so non-commutative but
// associative operations are deterministic under Reduce. AllReduce's
// butterfly interleaves rank blocks and additionally requires the operation
// to be commutative (all ops in this package are).
//
// Because the simulated network passes payloads by reference, an Op must
// never mutate its arguments; it must return a fresh (or operand-aliasing
// but unmodified) value.
type Op[T any] func(a, b T) T

// Broadcast distributes val (of the given size in machine words) from root
// to all PEs and returns it. Binomial tree: O(β·words + α log p).
func Broadcast[T any](c *Comm, root int, val T, words int) T {
	tag := c.nextTag()
	p := c.p
	if p == 1 {
		return val
	}
	defer transport.FlushConn(c.Conn)
	rel := (c.Rank() - root + p) % p
	// Highest power of two < p bounds the sender masks.
	top := 1
	for top < p {
		top <<= 1
	}
	lsb := top
	if rel != 0 {
		lsb = rel & (-rel)
		parent := (rel - lsb + root) % p
		val = c.Conn.Recv(parent, tag).(T)
	}
	for m := lsb >> 1; m >= 1; m >>= 1 {
		child := rel + m
		if child < p {
			c.Conn.Send((child+root)%p, tag, val, words)
		}
	}
	return val
}

// Reduce combines the PEs' values with op; the result is returned at root
// (other PEs receive their partial accumulation, which they must ignore).
// Binomial tree: O(β·words + α log p).
func Reduce[T any](c *Comm, root int, val T, op Op[T], words int) T {
	tag := c.nextTag()
	p := c.p
	if p == 1 {
		return val
	}
	defer transport.FlushConn(c.Conn)
	rel := (c.Rank() - root + p) % p
	top := 1
	for top < p {
		top <<= 1
	}
	lsb := top
	if rel != 0 {
		lsb = rel & (-rel)
	}
	acc := val
	for m := 1; m < lsb; m <<= 1 {
		child := rel + m
		if child >= p {
			break
		}
		cv := c.Conn.Recv((child+root)%p, tag).(T)
		// Child rel+m covers higher relative ranks than everything
		// accumulated so far.
		acc = op(acc, cv)
	}
	if rel != 0 {
		parent := (rel - lsb + root) % p
		c.Conn.Send(parent, tag, acc, words)
	}
	return acc
}

// AllReduce combines the PEs' values with op and returns the result on
// every PE. For the power-of-two portion of the cluster it uses a butterfly
// exchange (log p rounds); remainder PEs fold in and out at the edges.
// O(β·words·log p + α log p); for the small fixed-size values used by the
// sampler this matches the O(βℓ + α log p) bound of the model.
func AllReduce[T any](c *Comm, val T, op Op[T], words int) T {
	return allReduce(c, val, op, func(T) int { return words })
}

// AllReduceList is AllReduce for slices whose length changes from message
// to message, such as a merge keeping the d largest keys of its operands:
// each message is charged wordsPerItem words per element it carries.
func AllReduceList[T any](c *Comm, val []T, op Op[[]T], wordsPerItem int) []T {
	return allReduce(c, val, op, func(v []T) int { return len(v) * wordsPerItem })
}

// allReduce is AllReduce with the size of each message in words given by
// words of its payload.
func allReduce[T any](c *Comm, val T, op Op[T], words func(T) int) T {
	tag := c.nextTag()
	p := c.p
	if p == 1 {
		return val
	}
	defer transport.FlushConn(c.Conn)
	// p2 = largest power of two <= p.
	p2 := 1
	for p2*2 <= p {
		p2 *= 2
	}
	id := c.Rank()
	acc := val
	// Fold: extras send their value down to id-p2.
	if id >= p2 {
		c.Conn.Send(id-p2, tag, acc, words(acc))
	} else {
		if id+p2 < p {
			ev := c.Conn.Recv(id+p2, tag).(T)
			acc = op(acc, ev)
		}
		// Butterfly on [0, p2).
		for m := 1; m < p2; m <<= 1 {
			partner := id ^ m
			c.Conn.Send(partner, tag+1, acc, words(acc))
			pv := c.Conn.Recv(partner, tag+1).(T)
			if partner > id {
				acc = op(acc, pv)
			} else {
				acc = op(pv, acc)
			}
		}
		if id+p2 < p {
			c.Conn.Send(id+p2, tag+2, acc, words(acc))
		}
	}
	if id >= p2 {
		acc = c.Conn.Recv(id-p2, tag+2).(T)
	}
	return acc
}

// Chunk carries one PE's contribution through the gather tree. It is
// exported so each instantiation that crosses a wire transport (e.g.
// chunks of sample items) can be given a wire codec via
// transport.RegisterMarshaler.
type Chunk[T any] struct {
	Src   int
	Items []T
}

// Gather collects a variable-length slice from every PE at root. At root it
// returns a slice indexed by rank; on other PEs it returns nil. Binomial
// tree with payload concatenation: O(β·Σℓ_i + α log p) along the critical
// path, i.e. O(βpℓ + α log p) for equal contributions, matching the model.
func Gather[T any](c *Comm, root int, items []T, wordsPerItem int) [][]T {
	tag := c.nextTag()
	p := c.p
	own := Chunk[T]{Src: c.Rank(), Items: items}
	if p == 1 {
		return [][]T{items}
	}
	defer transport.FlushConn(c.Conn)
	rel := (c.Rank() - root + p) % p
	top := 1
	for top < p {
		top <<= 1
	}
	lsb := top
	if rel != 0 {
		lsb = rel & (-rel)
	}
	chunks := []Chunk[T]{own}
	totalItems := len(items)
	for m := 1; m < lsb; m <<= 1 {
		child := rel + m
		if child >= p {
			break
		}
		cv := c.Conn.Recv((child+root)%p, tag).([]Chunk[T])
		for _, ch := range cv {
			totalItems += len(ch.Items)
		}
		chunks = append(chunks, cv...)
	}
	if rel != 0 {
		parent := (rel - lsb + root) % p
		// Words: payload plus one header word per chunk.
		c.Conn.Send(parent, tag, chunks, totalItems*wordsPerItem+len(chunks))
		return nil
	}
	out := make([][]T, p)
	for _, ch := range chunks {
		out[ch.Src] = ch.Items
	}
	return out
}

// --- common reduction ops ------------------------------------------------

// SumInt adds two ints.
func SumInt(a, b int) int { return a + b }

// SumInts adds two equal-length int vectors elementwise into a fresh slice
// (operands are not mutated; see Op).
func SumInts(a, b []int) []int {
	out := make([]int, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// MergeSmallest returns a bound Op that merges two ascending-sorted slices,
// keeping the d smallest elements, with less as the order.
func MergeSmallest[T any](d int, less func(a, b T) bool) Op[[]T] {
	return func(a, b []T) []T {
		out := make([]T, 0, min(len(a)+len(b), d))
		i, j := 0, 0
		for len(out) < d && (i < len(a) || j < len(b)) {
			switch {
			case i == len(a):
				out = append(out, b[j])
				j++
			case j == len(b):
				out = append(out, a[i])
				i++
			case less(b[j], a[i]):
				out = append(out, b[j])
				j++
			default:
				out = append(out, a[i])
				i++
			}
		}
		return out
	}
}
