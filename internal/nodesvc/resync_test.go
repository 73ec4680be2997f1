package nodesvc

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"reservoir"
	"reservoir/internal/simnet"
)

// orderConn is a fault-tolerant transport stub for rank 0's side of the
// resync protocol, driven from the test goroutine only. It records every
// link refresh and control send in call order, answers each PREPARE with
// a REPORT and each COMMIT with a READY, and reports its down peers as
// down until the fault clears.
type orderConn struct {
	*simnet.PE // data plane: never used by the protocol itself
	down       []int
	epoch      uint64
	calls      []string
	replies    []ctrlReply
}

type ctrlReply struct {
	from int
	m    resyncMsg
}

func (c *orderConn) FaultTolerant() bool         { return true }
func (c *orderConn) RejoinWindow() time.Duration { return 5 * time.Second }
func (c *orderConn) CtrlPending() bool           { return false }
func (c *orderConn) CtrlNotify() <-chan struct{} { return nil }
func (c *orderConn) Epoch() uint64               { return c.epoch }
func (c *orderConn) AdvanceEpoch(e uint64)       { c.epoch = e }
func (c *orderConn) ClearFault()                 { c.down = nil }
func (c *orderConn) DownPeers() []int            { return c.down }

func (c *orderConn) Refresh(peer int, _ time.Time) error {
	c.calls = append(c.calls, fmt.Sprintf("refresh %d", peer))
	return nil
}

func (c *orderConn) SendCtrl(to int, payload any, _ time.Time) error {
	m := payload.(resyncMsg)
	reply := resyncMsg{Attempt: m.Attempt}
	switch m.Kind {
	case kindPrepare:
		c.calls = append(c.calls, fmt.Sprintf("prepare %d", to))
		reply.Kind = kindReport
	case kindCommit:
		c.calls = append(c.calls, fmt.Sprintf("commit %d", to))
		reply.Kind = kindReady
	default:
		return fmt.Errorf("unexpected ctrl kind %d", m.Kind)
	}
	c.replies = append(c.replies, ctrlReply{to, reply})
	return nil
}

func (c *orderConn) RecvCtrl(time.Time) (int, any, error) {
	if len(c.replies) == 0 {
		return 0, nil, fmt.Errorf("no ctrl message queued")
	}
	r := c.replies[0]
	c.replies = c.replies[1:]
	return r.from, r.m, nil
}

// A node that rejoined mid-resync is marked down with a stale outbound
// connection. Rank 0 must refresh the link before it sends that node the
// PREPARE, or the PREPARE can be buffered into the dead incarnation's
// connection and the attempt stalls until its deadline.
func TestResyncRefreshesDownPeersBeforePrepare(t *testing.T) {
	const p = 3
	conn := &orderConn{PE: simnet.NewCluster(p, simnet.DefaultCost()).PE(0), down: []int{2}}
	s, err := New(Options{Conn: conn, Config: reservoir.Config{K: 8, Weighted: true, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.coordinateResync(); err != nil {
		t.Fatal(err)
	}
	refresh := slices.Index(conn.calls, "refresh 2")
	prepare := slices.Index(conn.calls, "prepare 2")
	if refresh < 0 || prepare < 0 || refresh > prepare {
		t.Fatalf("down peer 2 got its PREPARE before its link was refreshed; calls: %v", conn.calls)
	}
	if !slices.Contains(conn.calls, "commit 2") {
		t.Fatalf("resync did not commit; calls: %v", conn.calls)
	}
}
