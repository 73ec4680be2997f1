// Package simnet simulates the paper's machine model (Sec 3): p processing
// elements (PEs) connected by a full-duplex, single-ported network in which
// transferring a message of ℓ machine words costs α + βℓ time.
//
// Each PE runs as its own goroutine and owns a virtual clock measured in
// nanoseconds. Local computation advances the clock through Work; messages
// carry their virtual arrival time, and receiving merges that time into the
// receiver's clock (clock = max(clock, arrival)). The algorithms under test
// therefore execute for real — real tree insertions, real message rounds —
// while the reported times come from the deterministic cost model rather
// than from noisy wall-clock measurement. This substitutes for the paper's
// 256-node InfiniBand cluster; see DESIGN.md §2.
package simnet

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// CostParams holds the communication cost parameters of the machine model.
type CostParams struct {
	// AlphaNS is the message startup latency α in nanoseconds.
	AlphaNS float64
	// BetaNS is the per-machine-word (8 byte) transfer time β in nanoseconds.
	BetaNS float64
}

// DefaultCost returns parameters loosely modeled on the paper's InfiniBand
// 4X EDR interconnect: ~2µs startup latency and ~1ns per 8-byte word
// (≈ 8 GB/s effective per-PE bandwidth).
func DefaultCost() CostParams { return CostParams{AlphaNS: 2000, BetaNS: 1} }

// Stats aggregates network traffic counters across the whole cluster.
type Stats struct {
	Messages int64
	Words    int64
}

// Cluster is a set of p PEs sharing a simulated network.
type Cluster struct {
	p        int
	cost     CostParams
	boxes    []*mailbox
	pes      []*PE
	messages atomic.Int64
	words    atomic.Int64
}

// NewCluster creates a cluster of p PEs with the given cost parameters.
func NewCluster(p int, cost CostParams) *Cluster {
	if p < 1 {
		panic("simnet: cluster needs at least one PE")
	}
	c := &Cluster{p: p, cost: cost, boxes: make([]*mailbox, p), pes: make([]*PE, p)}
	for i := range c.boxes {
		c.boxes[i] = newMailbox()
		c.pes[i] = &PE{id: i, c: c}
	}
	return c
}

// P returns the number of PEs.
func (c *Cluster) P() int { return c.p }

// Cost returns the communication cost parameters.
func (c *Cluster) Cost() CostParams { return c.cost }

// PE returns the persistent PE with the given id.
func (c *Cluster) PE(id int) *PE { return c.pes[id] }

// Stats returns a snapshot of the cluster-wide traffic counters.
func (c *Cluster) Stats() Stats {
	return Stats{Messages: c.messages.Load(), Words: c.words.Load()}
}

// MaxClock returns the largest virtual clock over all PEs. It must only be
// called while no Parallel section is running.
func (c *Cluster) MaxClock() float64 {
	var m float64
	for _, pe := range c.pes {
		if pe.clock > m {
			m = pe.clock
		}
	}
	return m
}

// ResetClocks sets every PE clock to zero (between experiments).
func (c *Cluster) ResetClocks() {
	for _, pe := range c.pes {
		pe.clock = 0
	}
}

// PendingMessages returns the number of undelivered messages across all
// mailboxes. After a completed SPMD section this should be zero; tests use
// it to detect leaked messages.
func (c *Cluster) PendingMessages() int {
	n := 0
	for _, b := range c.boxes {
		n += b.pending()
	}
	return n
}

// Parallel runs body concurrently on every PE (SPMD style) and returns when
// all have finished. Panics in a PE body are re-raised on the caller after
// all other PEs finished or deadlocked mailboxes were drained.
func (c *Cluster) Parallel(body func(pe *PE)) {
	var wg sync.WaitGroup
	panics := make([]any, c.p)
	wg.Add(c.p)
	for i := 0; i < c.p; i++ {
		//lint:allow determinism -- the SPMD PE launcher is the worker-owned path itself: each PE goroutine owns its sampler state exclusively and rendezvouses only through deterministic mailboxes
		go func(pe *PE) {
			defer wg.Done()
			defer func() {
				//lint:allow faultpanic -- PE panics are collected (never swallowed) and the primary is re-raised by Parallel after every PE lands; triage happens at that single re-raise point
				if r := recover(); r != nil {
					panics[pe.id] = r
					// Unblock any PE waiting on us by poisoning all boxes.
					for _, b := range c.boxes {
						b.poison()
					}
				}
			}()
			body(pe)
		}(c.pes[i])
	}
	wg.Wait()
	for _, b := range c.boxes {
		b.unpoison()
	}
	// Report the primary panic: prefer one that is not the secondary
	// "receive aborted" unwinding caused by the poison mechanism.
	primary, primaryID := any(nil), -1
	for id, p := range panics {
		if p == nil {
			continue
		}
		if _, aborted := p.(receiveAborted); !aborted || primary == nil {
			if _, primaryAborted := primary.(receiveAborted); primary == nil || primaryAborted {
				primary, primaryID = p, id
			}
		}
	}
	if primary != nil {
		panic(fmt.Sprintf("simnet: PE %d panicked: %v", primaryID, primary))
	}
}

// receiveAborted is the panic payload used to unwind PEs that were blocked
// in Recv when a peer PE panicked.
type receiveAborted struct{}

func (receiveAborted) String() string { return "simnet: receive aborted: a peer PE panicked" }

// PE is a processing element: one simulated node of the cluster.
type PE struct {
	id int
	c  *Cluster
	// clock is the PE's virtual time in nanoseconds. It is only touched by
	// the PE's own goroutine during a Parallel section.
	clock float64
	// SentMessages / SentWords count this PE's outgoing traffic.
	SentMessages int64
	SentWords    int64
}

// ID returns the PE's rank in 0..p-1.
func (pe *PE) ID() int { return pe.id }

// P returns the cluster size.
func (pe *PE) P() int { return pe.c.p }

// Clock returns the PE's current virtual time in nanoseconds.
func (pe *PE) Clock() float64 { return pe.clock }

// Work advances the PE's virtual clock by ns nanoseconds of local
// computation.
func (pe *PE) Work(ns float64) { pe.clock += ns }

// Send transfers a message of the given payload size (in 8-byte machine
// words) to PE `to`. Sending occupies the single-ported sender for
// α + β·words, and the message arrives at the receiver at the sender's
// post-send time (cut-through: startup and transfer overlap end-to-end).
func (pe *PE) Send(to, tag int, payload any, words int) {
	if words < 1 {
		words = 1
	}
	cost := pe.c.cost.AlphaNS + float64(pe.c.cost.BetaNS*float64(words))
	pe.clock += cost
	pe.SentMessages++
	pe.SentWords += int64(words)
	pe.c.messages.Add(1)
	pe.c.words.Add(int64(words))
	pe.c.boxes[to].put(message{from: pe.id, tag: tag, payload: payload, arrive: pe.clock})
}

// Recv blocks until a message from `from` with the given tag arrives,
// merges its virtual arrival time into the PE's clock, and returns the
// payload.
func (pe *PE) Recv(from, tag int) any {
	m := pe.c.boxes[pe.id].get(from, tag)
	if m.arrive > pe.clock {
		pe.clock = m.arrive
	}
	return m.payload
}

// --- mailbox -------------------------------------------------------------

type message struct {
	from, tag int
	payload   any
	arrive    float64
}

// mailbox is a per-PE inbox supporting receive-with-matching on
// (sender, tag), like an MPI receive queue.
type mailbox struct {
	mu       sync.Mutex
	cond     *sync.Cond
	queue    []message
	poisoned bool
}

func newMailbox() *mailbox {
	b := &mailbox{}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *mailbox) put(m message) {
	b.mu.Lock()
	b.queue = append(b.queue, m)
	b.mu.Unlock()
	b.cond.Broadcast()
}

func (b *mailbox) get(from, tag int) message {
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		for i, m := range b.queue {
			if m.from == from && m.tag == tag {
				b.queue = append(b.queue[:i], b.queue[i+1:]...)
				return m
			}
		}
		if b.poisoned {
			panic(receiveAborted{})
		}
		b.cond.Wait()
	}
}

// poison wakes all blocked receivers with a panic; used to unwind cleanly
// when one PE in a Parallel section panicked.
func (b *mailbox) poison() {
	b.mu.Lock()
	b.poisoned = true
	b.mu.Unlock()
	b.cond.Broadcast()
}

func (b *mailbox) unpoison() {
	b.mu.Lock()
	if b.poisoned {
		// Drop in-flight messages of the aborted section.
		b.queue = b.queue[:0]
		b.poisoned = false
	}
	b.mu.Unlock()
}

func (b *mailbox) pending() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.queue)
}
