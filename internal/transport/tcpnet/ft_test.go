package tcpnet

// Fault-tolerance tests: recoverable peer-loss semantics, the epoch
// filter that isolates retried rounds from stale traffic, the control
// channel the recovery protocol runs on, and redial-after-restart — the
// transport half of the crash-restart story (internal/nodesvc owns the
// protocol half).

import (
	"net"
	"reflect"
	"testing"
	"time"

	"reservoir/internal/transport"
)

// dialPair forms a fault-tolerant 2-node mesh on fixed loopback ports and
// returns the transports plus the peer list (for restarts).
func dialPair(t *testing.T, rejoin time.Duration) ([]*Transport, []string) {
	t.Helper()
	lns := make([]net.Listener, 2)
	peers := make([]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		peers[i] = ln.Addr().String()
	}
	ts := make([]*Transport, 2)
	errs := make([]error, 2)
	done := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		go func(rank int) {
			ts[rank], errs[rank] = Dial(Config{
				Rank: rank, Peers: peers, Listener: lns[rank],
				FormationTimeout: 20 * time.Second, RejoinTimeout: rejoin,
			})
			done <- struct{}{}
		}(i)
	}
	<-done
	<-done
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return ts, peers
}

func TestFTPeerLossInterruptsRecoverablyAndRedials(t *testing.T) {
	ts, peers := dialPair(t, 15*time.Second)
	defer closeAll(ts)

	// A blocked receive must abort with a recoverable *FaultError when
	// the peer dies — not hang, not poison the mailbox forever.
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		ts[1].Recv(0, 1)
	}()
	time.Sleep(100 * time.Millisecond)
	ts[0].Close() // "kill" rank 0

	var fe *FaultError
	select {
	case r := <-panicked:
		f, ok := transport.AsFault(r)
		if !ok {
			t.Fatalf("panic %v (%T) is not a transport.Fault", r, r)
		}
		fe = f.(*FaultError)
	case <-time.After(10 * time.Second):
		t.Fatal("Recv still blocked 10s after peer death")
	}
	if fe.Peer != 0 {
		t.Fatalf("fault names peer %d, want 0", fe.Peer)
	}
	if dp := ts[1].DownPeers(); len(dp) != 1 || dp[0] != 0 {
		t.Fatalf("down peers = %v, want [0]", dp)
	}

	// "Restart" rank 0 on its old address. The survivor's background
	// redial must reconnect, which is also what completes the restarted
	// node's formation (it waits for an inbound connection from rank 1).
	ln0, err := net.Listen("tcp", peers[0])
	if err != nil {
		t.Fatalf("rebinding %s: %v", peers[0], err)
	}
	t0b, err := Dial(Config{
		Rank: 0, Peers: peers, Listener: ln0,
		FormationTimeout: 20 * time.Second, RejoinTimeout: 15 * time.Second,
	})
	if err != nil {
		t.Fatalf("restarted rank 0 could not re-form: %v", err)
	}
	defer t0b.Close()
	// Re-arm the survivor the way the recovery protocol does: refresh the
	// outbound link to the restarted incarnation (a send racing the
	// background redial could be silently buffered into the dead
	// connection), then clear the fault.
	if err := ts[1].Refresh(0, time.Now().Add(10*time.Second)); err != nil {
		t.Fatal(err)
	}
	ts[1].ClearFault()

	// Traffic flows again in both directions. Sends are batched until a
	// flush point, and this goroutine plays both ranks — so flush the
	// sender explicitly where a real rank's own Recv would.
	t0b.Send(1, 2, 41, 1)
	t0b.Flush()
	if got := ts[1].Recv(0, 2).(int); got != 41 {
		t.Fatalf("post-rejoin payload = %d, want 41", got)
	}
	ts[1].Send(0, 3, 42, 1)
	ts[1].Flush()
	if got := t0b.Recv(1, 3).(int); got != 42 {
		t.Fatalf("post-rejoin payload = %d, want 42", got)
	}
}

func TestFTEpochFilterDiscardsStaleTraffic(t *testing.T) {
	ts, _ := dialPair(t, 5*time.Second)
	defer closeAll(ts)

	// An epoch-0 message is sent, then both sides resync to epoch 1: the
	// stale message must never be delivered, only the epoch-1 retry.
	ts[0].Send(1, 7, -1, 1)
	ts[0].Flush() // batched sends only hit the socket at a flush point
	deadline := time.Now().Add(5 * time.Second)
	for ts[1].Pending() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if ts[1].Pending() == 0 {
		t.Fatal("epoch-0 message never arrived")
	}
	ts[1].AdvanceEpoch(1)
	if n := ts[1].Pending(); n != 0 {
		t.Fatalf("%d stale messages survived the epoch advance", n)
	}
	ts[0].AdvanceEpoch(1)
	ts[0].Send(1, 7, 1, 1)
	ts[0].Flush()
	if got := ts[1].Recv(0, 7).(int); got != 1 {
		t.Fatalf("payload = %d, want the epoch-1 retry", got)
	}
	if ts[0].Epoch() != 1 || ts[1].Epoch() != 1 {
		t.Fatalf("epochs = %d/%d, want 1/1", ts[0].Epoch(), ts[1].Epoch())
	}
}

func TestFTCtrlChannelInterruptsAndDelivers(t *testing.T) {
	ts, _ := dialPair(t, 5*time.Second)
	defer closeAll(ts)

	// A blocked data receive aborts recoverably when a control message
	// arrives (the peer is initiating a resync, the data will never come).
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		ts[1].Recv(0, 9)
	}()
	time.Sleep(100 * time.Millisecond)
	if err := ts[0].SendCtrl(1, []int{2, 9}, time.Now().Add(5*time.Second)); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-panicked:
		if _, ok := transport.AsFault(r); !ok {
			t.Fatalf("panic %v (%T) is not a transport.Fault", r, r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ctrl message did not interrupt the blocked receive")
	}

	// The control message itself is retrievable, the notify channel
	// pulsed, and the data plane works afterwards.
	select {
	case <-ts[1].CtrlNotify():
	default:
		t.Fatal("CtrlNotify did not pulse")
	}
	from, payload, err := ts[1].RecvCtrl(time.Now().Add(5 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if from != 0 || !reflect.DeepEqual(payload, []int{2, 9}) {
		t.Fatalf("ctrl message = %v from %d", payload, from)
	}
	ts[0].Send(1, 10, 10, 1)
	ts[0].Flush() // this goroutine plays both ranks; flush for the sender
	if got := ts[1].Recv(0, 10).(int); got != 10 {
		t.Fatalf("post-ctrl payload = %d", got)
	}

	// RecvCtrl times out cleanly when nothing arrives.
	if _, _, err := ts[1].RecvCtrl(time.Now().Add(50 * time.Millisecond)); err == nil {
		t.Fatal("RecvCtrl returned without a message")
	}
}

func TestStrictModeStillPoisonsPermanently(t *testing.T) {
	// Without a rejoin window the original reliable-PE semantics hold:
	// peer loss poisons receives from that peer for good.
	ts, err := Loopback(2)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(ts)
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		ts[1].Recv(0, 1)
	}()
	time.Sleep(100 * time.Millisecond)
	ts[0].Close()
	select {
	case r := <-panicked:
		if _, ok := transport.AsFault(r); ok {
			t.Fatalf("strict-mode poisoning produced a recoverable fault: %v", r)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Recv still blocked")
	}
}
