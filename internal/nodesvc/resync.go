package nodesvc

// The crash-restart recovery protocol. The unit of recovery is the round
// boundary: every node snapshots its sampler after each completed round
// (a small in-memory ring, plus a ring of slot files via internal/store
// when persistence is on). When the transport reports a recoverable fault —
// a peer died mid-collective, or a control message interrupted a blocked
// receive — every node abandons the in-flight round and rank 0
// coordinates a resync:
//
//	PREPARE  root → all   "report your restorable state"   (attempt-tagged)
//	REPORT   all → root   epoch + [oldest, current] restorable boundary
//	COMMIT   root → all   restore round R = min(current_i), adopt epoch
//	                      E = max(epoch_i)+1, reset the collective tags
//	READY    all → root   restored and re-armed
//
// Only after every READY does rank 0 resume broadcasting commands, so no
// data frame of epoch E is ever sent to a node still on E-1 — which is
// what makes the transport's "discard stale epochs" filter sufficient to
// isolate the failed round's traffic. A crash-restarted node recovers
// its newest persisted boundary, re-forms its mesh (survivors redial in),
// announces itself with a FAULT(rejoin) message, and takes part in the
// next PREPARE like any survivor; because min() picks the round every
// node can restore and each node retains a small snapshot history, the
// restarted node can also roll *back* if it persisted a round the
// survivors never finished.
//
// Determinism: the sampler is a pure function of (config, per-PE stream),
// both restored bit-identically from the boundary snapshot (PRNG state
// included), so a recovered cluster produces the byte-identical sample
// of an uninterrupted run — reservoir-verify -match checks exactly that
// after every chaos run.

import (
	"fmt"
	"time"

	"reservoir"
	"reservoir/internal/transport"
)

// ftConn is the fault-tolerant transport surface the recovery protocol
// runs on (implemented by *tcpnet.Transport with a RejoinTimeout).
type ftConn interface {
	transport.Conn
	FaultTolerant() bool
	RejoinWindow() time.Duration
	Epoch() uint64
	AdvanceEpoch(uint64)
	ClearFault()
	DownPeers() []int
	CtrlPending() bool
	CtrlNotify() <-chan struct{}
	SendCtrl(to int, payload any, deadline time.Time) error
	RecvCtrl(deadline time.Time) (int, any, error)
	Refresh(peer int, deadline time.Time) error
}

// Resync message kinds.
const (
	kindFault   byte = iota + 1 // follower → root: fault seen / rejoined
	kindPrepare                 // root → all: report restorable state
	kindReport                  // follower → root: epoch + boundary range
	kindCommit                  // root → all: restore Round, adopt Epoch
	kindReady                   // follower → root: restored, re-armed
)

// resyncMsg travels over the transport's control channel (epoch-exempt).
// Fields are exported for the wire encoding.
type resyncMsg struct {
	Kind    byte
	Attempt uint64
	Epoch   uint64
	Round   uint64 // current boundary (report/fault) or commit target
	Lo      uint64 // oldest restorable boundary (report/fault)
	Rejoin  bool   // fault: the sender crash-restarted
}

// The recovery protocol exchanges O(p) control messages per resync
// attempt, each a resyncMsg in this wire codec. The JOIN side of
// recovery — a restarted node's transport handshake — is a fixed binary
// frame below the payload layer and is untouched by codec choice.
func init() {
	transport.RegisterMarshaler(transport.WireIDResyncMsg,
		func(buf []byte, v resyncMsg) []byte {
			buf = append(buf, v.Kind)
			buf = transport.AppendUvarint(buf, v.Attempt)
			buf = transport.AppendUvarint(buf, v.Epoch)
			buf = transport.AppendUvarint(buf, v.Round)
			buf = transport.AppendUvarint(buf, v.Lo)
			return transport.AppendBool(buf, v.Rejoin)
		},
		func(d *transport.Dec) (resyncMsg, error) {
			return resyncMsg{
				Kind:    d.U8(),
				Attempt: d.Uvarint(),
				Epoch:   d.Uvarint(),
				Round:   d.Uvarint(),
				Lo:      d.Uvarint(),
				Rejoin:  d.Bool(),
			}, d.Err()
		})
}

// ringDepth bounds the in-memory boundary history. The lockstep collective
// structure keeps the cluster-wide round spread ≤ 1, so even a restarted
// node that persisted one round more than the survivors finished stays
// well inside the window.
const ringDepth = 4

// boundary is one restorable round boundary.
type boundary struct {
	round    uint64
	blob     []byte
	counters reservoir.Counters
}

// pushBoundary records the node's current state as a restorable boundary
// (ring; the slot write is captureBoundary's).
func (s *Server) pushBoundary(b boundary) {
	s.ring = append(s.ring, b)
	if len(s.ring) > ringDepth {
		s.ring = s.ring[len(s.ring)-ringDepth:]
	}
}

// boundaryRange returns the oldest and newest restorable rounds.
func (s *Server) boundaryRange() (lo, cur uint64) {
	if len(s.ring) == 0 {
		return 0, uint64(s.node.Round())
	}
	lo = s.ring[0].round
	cur = s.ring[len(s.ring)-1].round
	if s.slots != nil {
		if rounds := s.slots.Rounds(); len(rounds) > 0 && rounds[0] < lo {
			lo = rounds[0]
		}
	}
	return lo, cur
}

// restoreBoundary rolls the node back (or, for a freshly restarted node,
// forward) to the state at round boundary r, from the in-memory ring or
// the persisted slot ring.
func (s *Server) restoreBoundary(r uint64) error {
	for i := len(s.ring) - 1; i >= 0; i-- {
		if s.ring[i].round == r {
			b := s.ring[i]
			if err := s.node.RestoreState(b.blob, int(r)); err != nil {
				return fmt.Errorf("restoring round %d from memory: %w", r, err)
			}
			s.node.RestoreCounters(b.counters)
			return nil
		}
	}
	if s.slots != nil {
		ds, err := s.loadDiskState(r)
		if err != nil {
			return err
		}
		if err := s.node.RestoreState(ds.Sampler, int(r)); err != nil {
			return fmt.Errorf("restoring round %d from disk: %w", r, err)
		}
		s.node.RestoreCounters(ds.Counters)
		s.pushBoundary(boundary{round: r, blob: ds.Sampler, counters: ds.Counters})
		return nil
	}
	return fmt.Errorf("round boundary %d is not restorable (ring %d..%d, no store)",
		r, func() uint64 { lo, _ := s.boundaryRange(); return lo }(), uint64(s.node.Round()))
}

// coordinateResync is rank 0's side of the protocol. It retries whole
// attempts (a restarted node may still be forming its mesh, a second
// failure may land mid-protocol) until every follower is restored and
// re-armed, or twice the rejoin window passes.
func (s *Server) coordinateResync() error {
	window := s.ft.RejoinWindow()
	overall := time.Now().Add(2 * window)
	p := s.node.P()
	s.formed.Store(false)
	for {
		if time.Now().After(overall) {
			return fmt.Errorf("nodesvc: rank 0: resync did not complete within %s (down peers: %v)",
				2*window, s.ft.DownPeers())
		}
		s.attempt++
		a := s.attempt
		phase := time.Now().Add(window)
		if phase.After(overall) {
			phase = overall
		}
		s.log.Info("resync attempt", "attempt", a, "down", fmt.Sprint(s.ft.DownPeers()))

		// PREPARE + collect REPORTs. Refresh the links to down peers
		// first: a node that rejoined mid-resync must get this PREPARE
		// on its new connection, not buffered into the dead one.
		if !s.refreshDown(phase) {
			continue
		}
		if !s.sendAll(resyncMsg{Kind: kindPrepare, Attempt: a}, phase) {
			continue
		}
		reports := make(map[int]resyncMsg, p-1)
		if !s.collect(a, kindReport, reports, phase) {
			continue
		}

		// Choose the common boundary and the new epoch.
		lo, cur := s.boundaryRange()
		target := cur
		epoch := s.ft.Epoch()
		oldest := lo
		for _, m := range reports {
			if m.Round < target {
				target = m.Round
			}
			if m.Epoch > epoch {
				epoch = m.Epoch
			}
			if m.Lo > oldest {
				oldest = m.Lo
			}
		}
		epoch++
		if target < oldest {
			return fmt.Errorf("nodesvc: rank 0: cluster must roll back to round %d but a node's history starts at %d", target, oldest)
		}

		// COMMIT: restore locally, adopt the epoch, re-arm, then tell
		// everyone. Followers send data only after rank 0 broadcasts the
		// next command, which happens only after every READY — so no
		// epoch-E data frame can reach a node still on an older epoch.
		// Refresh outbound links to the peers that were down first: a
		// data send racing the background redial could be silently
		// buffered into the dead incarnation's connection.
		if !s.refreshDown(phase) {
			continue
		}
		if err := s.restoreBoundary(target); err != nil {
			return fmt.Errorf("nodesvc: rank 0: %w", err)
		}
		s.ft.AdvanceEpoch(epoch)
		s.node.ResetTags()
		if !s.sendAll(resyncMsg{Kind: kindCommit, Attempt: a, Epoch: epoch, Round: target}, phase) {
			continue
		}
		readies := make(map[int]resyncMsg, p-1)
		if !s.collect(a, kindReady, readies, phase) {
			continue
		}
		s.ft.ClearFault()
		s.formed.Store(true)
		s.mResyncs.Inc()
		s.log.Info("resync complete", "round", target, "epoch", epoch)
		return nil
	}
}

// refreshDown re-establishes outbound links to every peer currently
// marked down, reporting success.
func (s *Server) refreshDown(deadline time.Time) bool {
	for _, peer := range s.ft.DownPeers() {
		if err := s.ft.Refresh(peer, deadline); err != nil {
			s.log.Warn("link refresh failed", "peer", peer, "err", err)
			return false
		}
	}
	return true
}

// sendAll delivers one control message to every follower, reporting
// whether all sends got through before the deadline.
func (s *Server) sendAll(m resyncMsg, deadline time.Time) bool {
	for peer := 1; peer < s.node.P(); peer++ {
		if err := s.ft.SendCtrl(peer, m, deadline); err != nil {
			s.log.Warn("resync send failed", "peer", peer, "err", err)
			return false
		}
	}
	return true
}

// collect gathers one attempt-tagged message of the wanted kind from
// every follower. A rejoin announcement mid-protocol aborts the attempt
// (the restarted node needs a fresh PREPARE); stale kinds and attempts
// are ignored.
func (s *Server) collect(attempt uint64, want byte, got map[int]resyncMsg, deadline time.Time) bool {
	for len(got) < s.node.P()-1 {
		from, v, err := s.ft.RecvCtrl(deadline)
		if err != nil {
			s.log.Warn("resync collect timed out", "have", len(got), "want", s.node.P()-1, "err", err)
			return false
		}
		m, ok := v.(resyncMsg)
		if !ok {
			s.log.Warn("unexpected ctrl payload", "type", fmt.Sprintf("%T", v), "from", from)
			continue
		}
		switch {
		case m.Kind == kindFault && m.Rejoin:
			s.log.Info("node rejoined mid-resync; restarting protocol", "peer", from)
			return false
		case m.Kind == want && m.Attempt == attempt:
			got[from] = m
		}
	}
	return true
}

// followResync is a follower's side of the protocol: announce the fault
// (or rejoin), then answer PREPAREs until a COMMIT restores and re-arms
// the node. It returns once the node is ready for the next command
// broadcast.
func (s *Server) followResync(rejoin bool) error {
	window := s.ft.RejoinWindow()
	overall := time.Now().Add(2 * window)
	s.formed.Store(false)
	lo, cur := s.boundaryRange()
	announce := resyncMsg{Kind: kindFault, Epoch: s.ft.Epoch(), Round: cur, Lo: lo, Rejoin: rejoin}
	if err := s.ft.SendCtrl(0, announce, overall); err != nil {
		// Rank 0 itself may be the crashed node; its restart will PREPARE.
		s.log.Warn("fault announce failed", "err", err)
	}
	for {
		if time.Now().After(overall) {
			return fmt.Errorf("nodesvc: rank %d: no resync commit within %s", s.node.Rank(), 2*window)
		}
		_, v, err := s.ft.RecvCtrl(overall)
		if err != nil {
			return fmt.Errorf("nodesvc: rank %d: resync receive: %w", s.node.Rank(), err)
		}
		m, ok := v.(resyncMsg)
		if !ok {
			continue
		}
		switch m.Kind {
		case kindPrepare:
			lo, cur := s.boundaryRange()
			rep := resyncMsg{Kind: kindReport, Attempt: m.Attempt, Epoch: s.ft.Epoch(), Round: cur, Lo: lo}
			if err := s.ft.SendCtrl(0, rep, overall); err != nil {
				return fmt.Errorf("nodesvc: rank %d: resync report: %w", s.node.Rank(), err)
			}
		case kindCommit:
			if !s.refreshDown(overall) {
				return fmt.Errorf("nodesvc: rank %d: could not refresh links to down peers %v", s.node.Rank(), s.ft.DownPeers())
			}
			if err := s.restoreBoundary(m.Round); err != nil {
				return fmt.Errorf("nodesvc: rank %d: %w", s.node.Rank(), err)
			}
			s.ft.AdvanceEpoch(m.Epoch)
			s.node.ResetTags()
			s.ft.ClearFault()
			if err := s.ft.SendCtrl(0, resyncMsg{Kind: kindReady, Attempt: m.Attempt}, overall); err != nil {
				return fmt.Errorf("nodesvc: rank %d: resync ready: %w", s.node.Rank(), err)
			}
			s.formed.Store(true)
			s.mResyncs.Inc()
			s.log.Info("resynced", "round", m.Round, "epoch", m.Epoch)
			return nil
		}
	}
}
