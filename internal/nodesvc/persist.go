package nodesvc

// Node-mode persistence: each node owns its own store directory holding
// one run ("node"): config.json plus a fixed ring of boundary slot files
// (store.Slots). Every completed round's boundary overwrites one slot in
// place with one write and (unless -fsync off) one fsync, and
// crash-restart recovery restores the newest valid slot (or, when the
// cluster rolls back, an older one).
// Nothing is logged ahead of a round: a lone node cannot replay a round —
// rounds are cluster-wide collectives — so recovery is boundary-only and
// cluster redundancy, not write-ahead logging, is the durability contract
// (DESIGN.md §2.5).

import (
	"encoding/json"
	"fmt"

	"reservoir"
	"reservoir/internal/core"
	"reservoir/internal/store"
	"reservoir/internal/transport"
)

// nodeRunID is the store run ID every node persists under.
const nodeRunID = "node"

// snapKindNode tags node-boundary snapshots in store slot files
// (distinct from the service's snapshot kinds).
const snapKindNode = byte(9)

// nodeConfigJSON is the persisted cluster configuration, validated on
// recovery so a node cannot resume into a differently-configured cluster.
// Shards and Pipeline are part of the sampling stream's identity
// (DESIGN.md §2.6); Shards is the effective count, so 0 and 1 match.
type nodeConfigJSON struct {
	P         int    `json:"p"`
	Rank      int    `json:"rank"`
	K         int    `json:"k"`
	Seed      uint64 `json:"seed"`
	Weighted  bool   `json:"weighted"`
	Algorithm string `json:"algorithm"`
	Shards    int    `json:"shards"`
	Pipeline  bool   `json:"pipeline"`
}

// diskState is the slot blob: everything beyond the sampler bytes that a
// restarted node needs (the epoch seeds the resync negotiation, the
// counters keep lifetime stats truthful).
type diskState struct {
	Round    uint64
	Epoch    uint64
	Counters reservoir.Counters
	Sampler  []byte
}

// diskStateHeader is the fixed part of an encoded diskState: round,
// epoch and the six counters, 8 bytes each, little endian. The sampler
// blob fills the rest (the slot's snapshot frame delimits it).
const diskStateHeader = 8 * 8

func encodeDiskState(ds *diskState) []byte {
	b := make([]byte, 0, diskStateHeader+len(ds.Sampler))
	b = transport.AppendU64(b, ds.Round)
	b = transport.AppendU64(b, ds.Epoch)
	b = ds.Counters.AppendLE(b)
	return append(b, ds.Sampler...)
}

// decodeDiskState inverts encodeDiskState. The returned Sampler aliases b.
func decodeDiskState(b []byte) (*diskState, error) {
	d := transport.NewDec(b)
	ds := &diskState{Round: d.U64(), Epoch: d.U64(), Counters: core.DecCounters(d)}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("nodesvc: boundary state: %w", err)
	}
	ds.Sampler = b[diskStateHeader:]
	return ds, nil
}

func (s *Server) configJSON() ([]byte, error) {
	algo, err := s.opts.Algorithm.MarshalText()
	if err != nil {
		return nil, err
	}
	shards := s.opts.Config.Shards
	if shards == 0 {
		shards = 1
	}
	return json.Marshal(nodeConfigJSON{
		P:         s.node.P(),
		Rank:      s.node.Rank(),
		K:         s.opts.Config.K,
		Seed:      s.opts.Config.Seed,
		Weighted:  s.opts.Config.Weighted,
		Algorithm: string(algo),
		Shards:    shards,
		Pipeline:  s.opts.Config.Pipeline,
	})
}

// initPersistence opens (or creates) this node's persisted run. On a
// rejoin it restores the newest boundary into the live sampler and marks
// the server as rejoining, so Run starts with the recovery protocol
// instead of the command loop.
func (s *Server) initPersistence() error {
	wantCfg, err := s.configJSON()
	if err != nil {
		return fmt.Errorf("nodesvc: encoding config: %w", err)
	}
	ids, err := s.st.ListRuns()
	if err != nil {
		return fmt.Errorf("nodesvc: listing persisted runs: %w", err)
	}
	for _, id := range ids {
		if id == nodeRunID {
			return s.recoverPersisted(wantCfg)
		}
	}
	if s.slots, err = s.st.CreateSlots(nodeRunID, wantCfg); err != nil {
		return fmt.Errorf("nodesvc: creating persisted run: %w", err)
	}
	return nil
}

func (s *Server) recoverPersisted(wantCfg []byte) error {
	cfg, slots, err := s.st.OpenSlots(nodeRunID)
	if err != nil {
		return fmt.Errorf("nodesvc: recovering node state: %w", err)
	}
	s.slots = slots
	var have, want nodeConfigJSON
	if err := json.Unmarshal(cfg, &have); err != nil {
		return fmt.Errorf("nodesvc: persisted config: %w", err)
	}
	_ = json.Unmarshal(wantCfg, &want)
	if have != want {
		return fmt.Errorf("nodesvc: persisted config %+v does not match flags %+v; refusing to rejoin", have, want)
	}
	snap, err := slots.Latest()
	if err != nil {
		return fmt.Errorf("nodesvc: recovering node state: %w", err)
	}
	if snap == nil {
		return fmt.Errorf("nodesvc: persisted run has no decodable boundary; refusing to guess one")
	}
	ds, err := boundaryState(snap)
	if err != nil {
		return err
	}
	if err := s.node.RestoreState(ds.Sampler, int(ds.Round)); err != nil {
		return fmt.Errorf("nodesvc: restoring boundary @%d: %w", ds.Round, err)
	}
	s.node.RestoreCounters(ds.Counters)
	s.ft.AdvanceEpoch(ds.Epoch) // a store implies a fault-tolerant transport (New)
	s.rejoining = true
	s.pushBoundary(boundary{round: ds.Round, blob: ds.Sampler, counters: ds.Counters})
	s.log.Info("recovered boundary", "round", ds.Round, "epoch", ds.Epoch)
	return nil
}

// loadDiskState reads the persisted boundary at round r.
func (s *Server) loadDiskState(r uint64) (*diskState, error) {
	snap, err := s.slots.Read(r)
	if err != nil {
		return nil, err
	}
	return boundaryState(snap)
}

// boundaryState decodes a slot's snapshot into the node state it holds.
func boundaryState(snap *store.Snapshot) (*diskState, error) {
	if snap.Kind != snapKindNode {
		return nil, fmt.Errorf("nodesvc: slot kind %d is not a node boundary", snap.Kind)
	}
	ds, err := decodeDiskState(snap.Blob)
	if err != nil {
		return nil, err
	}
	if ds.Round != snap.Round {
		return nil, fmt.Errorf("nodesvc: boundary state claims round %d inside a round-%d slot", ds.Round, snap.Round)
	}
	return ds, nil
}

// captureBoundary snapshots the node's state as the newest restorable
// round boundary: into the in-memory ring always, and — with a store —
// into its slot ring, fsynced (unless -fsync off) before the command
// replies.
func (s *Server) captureBoundary() error {
	if s.ft == nil && s.st == nil {
		return nil // nothing can consume a boundary; skip the per-round marshal
	}
	// A boundary must be a committed round: drain any pipelined selection
	// still in flight (SPMD — every rank captures boundaries in lockstep).
	// Draining here never changes the sampling stream (DESIGN.md §2.6).
	s.node.DrainPending()
	blob, err := s.node.MarshalState()
	if err != nil {
		return fmt.Errorf("nodesvc: rank %d: boundary snapshot: %w", s.node.Rank(), err)
	}
	round := uint64(s.node.Round())
	b := boundary{round: round, blob: blob, counters: s.node.Counters()}
	s.pushBoundary(b)
	if s.slots == nil {
		return nil
	}
	ds := diskState{Round: round, Epoch: s.ft.Epoch(), Counters: b.counters, Sampler: blob}
	return s.slots.Write(&store.Snapshot{Round: round, Kind: snapKindNode, Blob: encodeDiskState(&ds)})
}
