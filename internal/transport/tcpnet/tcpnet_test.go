package tcpnet

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"log/slog"
	"math"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"reservoir/internal/transport"
)

func closeAll(ts []*Transport) {
	for _, t := range ts {
		if t != nil {
			t.Close()
		}
	}
}

func TestPointToPoint(t *testing.T) {
	ts, err := Loopback(3)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(ts)

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		ts[0].Send(1, 7, 42, 1)
		ts[0].Send(2, 7, -0.25, 1)
		ts[0].Flush() // a rank that stops without receiving must flush
	}()
	go func() {
		defer wg.Done()
		ts[2].Send(1, 9, []int{15, -4}, 2)
		ts[2].Flush()
	}()
	if got := ts[1].Recv(0, 7).(int); got != 42 {
		t.Fatalf("int payload = %d, want 42", got)
	}
	if got := ts[1].Recv(2, 9).([]int); len(got) != 2 || got[0] != 15 || got[1] != -4 {
		t.Fatalf("slice payload = %v", got)
	}
	if got := ts[2].Recv(0, 7).(float64); got != -0.25 {
		t.Fatalf("float payload = %v, want -0.25", got)
	}
	wg.Wait()

	st := ts[0].Stats()
	if st.Messages != 2 || st.Words != 2 {
		t.Fatalf("rank 0 stats = %+v, want 2 messages / 2 words", st)
	}
	if st.Bytes == 0 {
		t.Fatalf("rank 0 stats counted no bytes")
	}
	for i, tr := range ts {
		if n := tr.Pending(); n != 0 {
			t.Fatalf("rank %d has %d leaked messages", i, n)
		}
	}
}

func TestTagMatchingOutOfOrder(t *testing.T) {
	ts, err := Loopback(2)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(ts)

	// Send tags 1..3 in order; receive them in reverse. The mailbox must
	// match by tag, not arrival order.
	for tag := 1; tag <= 3; tag++ {
		ts[0].Send(1, tag, tag*100, 1)
	}
	ts[0].Flush() // batched sends reach the socket at flush points only
	for tag := 3; tag >= 1; tag-- {
		if got := ts[1].Recv(0, tag).(int); got != tag*100 {
			t.Fatalf("tag %d payload = %d, want %d", tag, got, tag*100)
		}
	}
}

func TestDialRetryWhileListenerComesUpLate(t *testing.T) {
	// Reserve two addresses; start rank 1's transport only after rank 0
	// has been dialing into the void for a while. Dial must absorb the
	// refused connections and complete formation.
	ln0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	peers := []string{ln0.Addr().String(), ln1.Addr().String()}
	addr1 := ln1.Addr().String()
	ln1.Close() // rank 1 is "not started yet"

	results := make(chan *Transport, 2)
	errc := make(chan error, 2)
	go func() {
		tr, err := Dial(Config{Rank: 0, Peers: peers, Listener: ln0, FormationTimeout: 20 * time.Second})
		results <- tr
		errc <- err
	}()
	time.Sleep(300 * time.Millisecond) // rank 0 retries against a dead port
	go func() {
		ln1b, err := net.Listen("tcp", addr1)
		if err != nil {
			results <- nil
			errc <- err
			return
		}
		tr, err := Dial(Config{Rank: 1, Peers: peers, Listener: ln1b, FormationTimeout: 20 * time.Second})
		results <- tr
		errc <- err
	}()
	ts := make([]*Transport, 0, 2)
	for i := 0; i < 2; i++ {
		tr := <-results
		if err := <-errc; err != nil {
			t.Fatalf("formation failed: %v", err)
		}
		ts = append(ts, tr)
	}
	defer closeAll(ts)
	// Smoke a round-trip over the late-formed mesh.
	for _, tr := range ts {
		if tr.ID() == 0 {
			tr.Send(1, 1, 7, 1)
			tr.Flush()
		}
	}
	for _, tr := range ts {
		if tr.ID() == 1 {
			if got := tr.Recv(0, 1).(int); got != 7 {
				t.Fatalf("payload = %d, want 7", got)
			}
		}
	}
}

func TestFormationTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Peer 1 points at a port nobody will ever listen on.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()
	_, err = Dial(Config{
		Rank:             0,
		Peers:            []string{ln.Addr().String(), deadAddr},
		Listener:         ln,
		FormationTimeout: 700 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("formation against a dead peer succeeded")
	}
}

func TestCorruptFramePoisonsRecv(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tr := &Transport{
		rank:     1,
		p:        2,
		start:    time.Now(),
		log:      slog.New(slog.DiscardHandler),
		box:      newMailbox(),
		out:      make([]*link, 2),
		perPeer:  make([]peerCounter, 2),
		curIn:    make([]net.Conn, 2),
		inIncar:  make([]uint64, 2),
		outIncar: make([]uint64, 2),
		closed:   make(chan struct{}),
		ln:       ln,
	}
	inbound := make(chan int, 2)
	go tr.acceptLoop(inbound)
	defer tr.Close()

	// Hand-roll rank 0's outbound connection: valid handshake, then a
	// frame whose CRC does not match its payload.
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var hs [handshakeLen]byte
	binary.LittleEndian.PutUint32(hs[0:4], handshakeMagic)
	hs[4] = protocolVersion
	binary.LittleEndian.PutUint32(hs[5:9], 0)
	binary.LittleEndian.PutUint32(hs[9:13], 2)
	if _, err := conn.Write(hs[:]); err != nil {
		t.Fatal(err)
	}
	payload := []byte("not a wire payload")
	var head [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(head[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(head[4:8], 3)
	binary.LittleEndian.PutUint32(head[8:12], 1)
	binary.LittleEndian.PutUint32(head[12:16], 0) // epoch
	binary.LittleEndian.PutUint32(head[16:20], crc32.ChecksumIEEE(payload)^0xdeadbeef)
	conn.Write(head[:])
	conn.Write(payload)

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Recv returned instead of panicking on a corrupt frame")
		}
		fe, ok := r.(*transport.FatalError)
		if !ok {
			t.Fatalf("panic = %T (%v), want *transport.FatalError", r, r)
		}
		if !strings.Contains(fe.Msg, "CRC mismatch") {
			t.Fatalf("panic = %v, want CRC mismatch", fe)
		}
	}()
	tr.Recv(0, 3)
}

func TestOversizedMessageFragmentsAndReassembles(t *testing.T) {
	// A message above the per-frame cap must arrive intact via
	// fragmentation (a big gather — e.g. the centralized baseline's
	// candidate funnel — can legitimately exceed one frame).
	ts, err := Loopback(2)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(ts)

	// Every element encodes as a 10-byte varint, so the body is about
	// 1.25 frames, with an uneven tail crossing the last fragment.
	big := make([]int, (maxFramePayload+maxFramePayload/4)/10+3)
	for i := range big {
		big[i] = math.MinInt64 + i
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		ts[0].Send(1, 5, big, len(big))
	}()
	got := ts[1].Recv(0, 5).([]int)
	<-done
	if len(got) != len(big) {
		t.Fatalf("reassembled %d ints, want %d", len(got), len(big))
	}
	if !slices.Equal(got, big) {
		t.Fatal("payload corrupted by fragmentation round-trip")
	}
	// A small message on the same link afterwards still works (fragment
	// state fully reset).
	ts[0].Send(1, 6, 99, 1)
	ts[0].Flush()
	if got := ts[1].Recv(0, 6).(int); got != 99 {
		t.Fatalf("post-fragment message = %d, want 99", got)
	}
	if ts[0].Stats().Messages != 2 {
		t.Fatalf("fragmented message counted as %d messages, want 2 total", ts[0].Stats().Messages)
	}
}

func TestPeerDeathPoisonsBlockedRecv(t *testing.T) {
	// A peer exiting cleanly (FIN, not RST) must not leave survivors
	// blocked forever: the EOF poisons the mailbox and Recv panics.
	ts, err := Loopback(2)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(ts)

	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		ts[1].Recv(0, 1) // blocks: rank 0 never sends
	}()
	time.Sleep(100 * time.Millisecond) // let the Recv block
	ts[0].Close()                      // rank 0 "exits cleanly"

	select {
	case r := <-panicked:
		if r == nil {
			t.Fatal("Recv returned normally after the peer died")
		}
		if !strings.Contains(fmt.Sprint(r), "connection lost") {
			t.Fatalf("panic = %v, want connection-lost poisoning", r)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Recv still blocked 10s after the peer closed its transport")
	}
}

func TestHandshakeRejectsWrongClusterSize(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tr := &Transport{
		rank:     1,
		p:        2,
		start:    time.Now(),
		log:      slog.New(slog.DiscardHandler),
		box:      newMailbox(),
		out:      make([]*link, 2),
		perPeer:  make([]peerCounter, 2),
		curIn:    make([]net.Conn, 2),
		inIncar:  make([]uint64, 2),
		outIncar: make([]uint64, 2),
		closed:   make(chan struct{}),
		ln:       ln,
	}
	inbound := make(chan int, 2)
	go tr.acceptLoop(inbound)
	defer tr.Close()

	cases := []struct {
		name    string
		version byte
		p       uint32
	}{
		{"wrong cluster size", protocolVersion, 5},
		// A v4 peer would frame gob-or-wire payloads behind a one-byte
		// discriminator; it must be refused here, not misparsed later.
		{"stale protocol v4", 4, 2},
	}
	for _, tc := range cases {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		var hs [handshakeLen]byte
		binary.LittleEndian.PutUint32(hs[0:4], handshakeMagic)
		hs[4] = tc.version
		binary.LittleEndian.PutUint32(hs[5:9], 0)
		binary.LittleEndian.PutUint32(hs[9:13], tc.p)
		if _, err := conn.Write(hs[:]); err != nil {
			t.Fatal(err)
		}
		// The transport must close the connection without registering the peer.
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		buf := make([]byte, 1)
		if _, err := conn.Read(buf); err == nil {
			t.Fatalf("%s: connection stayed open after a bad handshake", tc.name)
		}
		conn.Close()
		select {
		case r := <-inbound:
			t.Fatalf("%s: bad handshake registered peer %d", tc.name, r)
		default:
		}
	}
}
