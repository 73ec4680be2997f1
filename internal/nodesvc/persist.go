package nodesvc

// Node-mode persistence rides the existing internal/store machinery: each
// node owns its own store directory holding one run ("node") whose WAL
// records every executed round (append-before-apply, like the service)
// and whose checkpoints — one per round boundary, with a small retained
// history — are what crash-restart recovery restores. Unlike the
// single-process service, a lone node cannot replay WAL rounds (a round
// is a cluster-wide collective), so recovery is snapshot-only and the WAL
// doubles as an audit trail of executed rounds, re-executions after a
// rollback included.

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"

	"reservoir"
	"reservoir/internal/store"
)

// nodeRunID is the store run ID every node persists under.
const nodeRunID = "node"

// snapKindNode tags node-boundary snapshots in store checkpoint files
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

// diskState is the checkpoint blob: everything beyond the sampler bytes
// that a restarted node needs (the epoch seeds the resync negotiation,
// the counters keep lifetime stats truthful).
type diskState struct {
	Round    uint64
	Epoch    uint64
	Counters reservoir.Counters
	Sampler  []byte
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
// rejoin it restores the newest checkpoint into the live sampler and
// marks the server as rejoining, so Run starts with the recovery
// protocol instead of the command loop.
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
	log, err := s.st.CreateRun(nodeRunID, wantCfg)
	if err != nil {
		return fmt.Errorf("nodesvc: creating persisted run: %w", err)
	}
	s.runLog = log
	return nil
}

func (s *Server) recoverPersisted(wantCfg []byte) error {
	rs, log, err := s.st.LoadRun(nodeRunID)
	if err != nil {
		return fmt.Errorf("nodesvc: recovering node state: %w", err)
	}
	if rs.Warning != nil {
		s.log.Warn("recovery warning", "err", rs.Warning)
	}
	var have, want nodeConfigJSON
	if err := json.Unmarshal(rs.Config, &have); err != nil {
		return fmt.Errorf("nodesvc: persisted config: %w", err)
	}
	_ = json.Unmarshal(wantCfg, &want)
	if have != want {
		return fmt.Errorf("nodesvc: persisted config %+v does not match flags %+v; refusing to rejoin", have, want)
	}
	if rs.Snapshot == nil {
		return fmt.Errorf("nodesvc: persisted run has no decodable checkpoint; refusing to guess a boundary")
	}
	ds, err := decodeDiskState(rs.Snapshot)
	if err != nil {
		return err
	}
	if err := s.node.RestoreState(ds.Sampler, int(ds.Round)); err != nil {
		return fmt.Errorf("nodesvc: restoring checkpoint @%d: %w", ds.Round, err)
	}
	s.node.RestoreCounters(ds.Counters)
	if s.ft != nil {
		s.ft.AdvanceEpoch(ds.Epoch)
	}
	s.runLog = log
	s.rejoining = true
	s.pushBoundary(boundary{round: ds.Round, blob: ds.Sampler, counters: ds.Counters})
	s.log.Info("recovered boundary", "round", ds.Round, "epoch", ds.Epoch)
	return nil
}

// loadDiskState reads the retained checkpoint at round r.
func (s *Server) loadDiskState(r uint64) (*diskState, error) {
	snap, err := s.st.ReadSnapshot(nodeRunID, r)
	if err != nil {
		return nil, err
	}
	return decodeDiskState(snap)
}

func decodeDiskState(snap *store.Snapshot) (*diskState, error) {
	if snap.Kind != snapKindNode {
		return nil, fmt.Errorf("nodesvc: checkpoint kind %d is not a node boundary", snap.Kind)
	}
	var ds diskState
	if err := gob.NewDecoder(bytes.NewReader(snap.Blob)).Decode(&ds); err != nil {
		return nil, fmt.Errorf("nodesvc: decoding checkpoint: %w", err)
	}
	if ds.Round != snap.Round {
		return nil, fmt.Errorf("nodesvc: checkpoint claims round %d inside a round-%d file", ds.Round, snap.Round)
	}
	return &ds, nil
}

// captureBoundary snapshots the node's state as the newest restorable
// round boundary: into the in-memory ring always, and — with a store —
// as a WAL record plus checkpoint (append-before-checkpoint, so a crash
// between the two still recovers the previous boundary). specJSON
// documents the round's input in the WAL audit trail.
func (s *Server) captureBoundary(specJSON []byte) error {
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
	if s.runLog == nil {
		return nil
	}
	if round > 0 && specJSON != nil {
		if err := s.runLog.AppendRound(&store.RoundRecord{Round: round - 1, Synthetic: specJSON}); err != nil {
			return err
		}
	}
	var buf bytes.Buffer
	ds := diskState{Round: round, Counters: b.counters, Sampler: blob}
	if s.ft != nil {
		ds.Epoch = s.ft.Epoch()
	}
	if err := gob.NewEncoder(&buf).Encode(&ds); err != nil {
		return fmt.Errorf("nodesvc: encoding checkpoint: %w", err)
	}
	return s.runLog.Checkpoint(&store.Snapshot{Round: round, Kind: snapKindNode, Blob: buf.Bytes()})
}
