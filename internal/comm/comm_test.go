package comm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"testing"
	"time"
)

func TestMessageCodecRoundTrip(t *testing.T) {
	msgs := []Message{
		{},
		{Kind: KindApply, From: "coord", ID: 42, Txn: "T7", Attempt: 3, TS: 99,
			Clock: 1001, Node: "T7.1.2", Item: "acct:17", Mode: "incr", Impl: "w",
			Arg: -250, Wait: int64(5 * time.Millisecond)},
		{Kind: KindApplyReply, ID: 42, Value: -3, Seq: 4097, OK: true},
		{Kind: KindPrepare, Txn: "T1", Attempt: 1, TS: 8},
		{Kind: KindVote, ID: 9, Txn: "T1", OK: true},
		{Kind: KindDecide, Txn: "T1", Commit: true, Clock: 77},
		{Kind: KindAck, ID: 10, Txn: "T1", OK: true},
		{Kind: KindQueryReply, ID: 11, Txn: "T1", Commit: false, Code: 3, Err: "presumed abort"},
		{Kind: KindAbort, Txn: "T2", Attempt: 7, Err: "unicode détail ✓"},
	}
	for i, want := range msgs {
		if want.Kind == 0 {
			want.Kind = KindLock
		}
		b := Encode(nil, want)
		got, err := Decode(b)
		if err != nil {
			t.Fatalf("msg %d: decode: %v", i, err)
		}
		if got != want {
			t.Fatalf("msg %d: round trip mismatch:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

func TestMessageDecodeRejectsCorrupt(t *testing.T) {
	b := Encode(nil, Message{Kind: KindApply, Txn: "T1", Item: "x"})
	// With From, ID and Txn empty the attempt uvarint sits at byte 4; the
	// flags byte is third from the end (flags, code, empty Err).
	p := Encode(nil, Message{Kind: KindPrepare, Attempt: 1})
	wideAttempt := append(binary.AppendUvarint(append([]byte(nil), p[:4]...), 1<<32+1), p[5:]...)
	badFlags := append([]byte(nil), p...)
	badFlags[len(badFlags)-3] |= 4
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"empty body", nil},
		{"unknown kind", []byte{0xEE}},
		{"truncated body", b[:len(b)-2]},
		{"trailing bytes", append(append([]byte(nil), b...), 0, 0)},
		{"attempt 2^32+1 would narrow to attempt 1", wideAttempt},
		{"undefined flag bit", badFlags},
	} {
		if m, err := Decode(tc.body); err == nil {
			t.Errorf("%s: decoded as %+v, want an error", tc.name, m)
		}
	}
}

// FuzzDecode: the decoder must never panic on arbitrary bytes, and what
// it accepts must survive a re-encode unchanged — every field a frame
// carries is a field Encode writes.
func FuzzDecode(f *testing.F) {
	for k := KindApply; k < kindMax; k++ {
		f.Add(Encode(nil, Message{Kind: k, From: "coord", ID: 42, Txn: "T7", Attempt: 3, TS: 99,
			Clock: 1001, Node: "T7/1/2", Item: "acct", Mode: "incr", Impl: "w", Arg: -250,
			Wait: int64(5 * time.Millisecond), Value: -3, Seq: 4097, OK: true, Commit: true,
			Code: 3, Err: "presumed abort"}))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return // corrupt input is fine; panics are not
		}
		again, err := Decode(Encode(nil, m))
		if err != nil {
			t.Fatalf("re-encoded %+v does not decode: %v", m, err)
		}
		if again != m {
			t.Fatalf("round trip changed the message:\n got %+v\nwant %+v", again, m)
		}
	})
}

// deliverAll drains n messages from ep, failing the test on close.
func deliverAll(t *testing.T, ep Endpoint, n int) []Message {
	t.Helper()
	out := make([]Message, 0, n)
	for i := 0; i < n; i++ {
		m, ok := ep.Recv()
		if !ok {
			t.Fatalf("endpoint closed after %d of %d messages", i, n)
		}
		out = append(out, m)
	}
	return out
}

func testNetworkBasics(t *testing.T, n Network) {
	t.Helper()
	a, err := n.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := a.Send("b", Message{Kind: KindApply, ID: uint64(i + 1), Txn: "T1"}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	got := deliverAll(t, b, 10)
	for i, m := range got {
		if m.ID != uint64(i+1) {
			t.Fatalf("message %d: got ID %d, want %d (FIFO violated)", i, m.ID, i+1)
		}
	}
	// Unknown peer errors; send to self works.
	if err := a.Send("nobody", Message{Kind: KindApply}); !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("send to unknown peer: got %v, want ErrUnknownPeer", err)
	}
	if err := b.Send("a", Message{Kind: KindVote, ID: 99}); err != nil {
		t.Fatal(err)
	}
	if m := deliverAll(t, a, 1)[0]; m.ID != 99 {
		t.Fatalf("reverse direction: got ID %d, want 99", m.ID)
	}
}

func TestChanNetworkBasics(t *testing.T) {
	n := NewChanNetwork()
	defer n.Close()
	testNetworkBasics(t, n)
}

func TestTCPNetworkBasics(t *testing.T) {
	n := NewTCPNetwork()
	defer n.Close()
	testNetworkBasics(t, n)
}

func TestEndpointReplacementForRecovery(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() Network
	}{
		{"chan", func() Network { return NewChanNetwork() }},
		{"tcp", func() Network { return NewTCPNetwork() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.mk()
			defer n.Close()
			a, _ := n.Endpoint("a")
			old, _ := n.Endpoint("b")
			// Crash b: old endpoint closes, then the node rejoins.
			old.Close()
			if _, ok := old.Recv(); ok {
				t.Fatal("recv on closed endpoint returned a message")
			}
			nu, err := n.Endpoint("b")
			if err != nil {
				t.Fatal(err)
			}
			// Sends may fail transiently while the replacement races in
			// (TCP cached conns); retry like the Mux would.
			var sent bool
			for i := 0; i < 50 && !sent; i++ {
				if err := a.Send("b", Message{Kind: KindDecide, Txn: "T1", Commit: true}); err == nil {
					sent = true
				} else {
					time.Sleep(time.Millisecond)
				}
			}
			if !sent {
				t.Fatal("could not reach replaced endpoint")
			}
			m, ok := nu.Recv()
			if !ok || m.Txn != "T1" || !m.Commit {
				t.Fatalf("replacement endpoint got %+v ok=%v", m, ok)
			}
		})
	}
}

func TestTCPFrameCRCPoisonsConnection(t *testing.T) {
	n := NewTCPNetwork()
	defer n.Close()
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	// Prime a healthy cached connection.
	if err := a.Send("b", Message{Kind: KindApply, ID: 1}); err != nil {
		t.Fatal(err)
	}
	deliverAll(t, b, 1)
	// Corrupt a frame by hand on the cached conn: the reader must drop
	// the connection, and a redial must still get traffic through.
	ae := a.(*tcpEndpoint)
	c := ae.cachedConn("b")
	if c == nil {
		t.Fatal("no cached connection after send")
	}
	if _, err := c.Write([]byte{4, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	// A write into the dead socket can still return nil before the RST
	// comes back (unreliable-transport contract), so keep sending until
	// something arrives on a fresh redial.
	got := make(chan Message, 1)
	go func() {
		if m, ok := b.Recv(); ok {
			got <- m
		}
	}()
	deadline := time.After(5 * time.Second)
	for {
		_ = a.Send("b", Message{Kind: KindApply, ID: 2})
		select {
		case m := <-got:
			if m.ID != 2 {
				t.Fatalf("after poison: got %+v, want ID 2", m)
			}
			return
		case <-deadline:
			t.Fatal("no message delivered after poisoned frame")
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// The reader is buffered, so one segment may hold several frames and a
// frame may straddle segments: both frames of a single write arrive, in
// order; a frame split across two writes arrives whole; and a bad CRC in
// the middle of a segment still poisons the connection — the frame before
// it is delivered, the one after it never is.
func TestTCPTwoFramesOneSegment(t *testing.T) {
	n := NewTCPNetwork()
	defer n.Close()
	b, _ := n.Endpoint("b")
	addr, err := n.addrOf("b")
	if err != nil {
		t.Fatal(err)
	}
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	frame := func(id uint64) []byte {
		var buf bytes.Buffer
		if err := writeFrameTo(&buf, Encode(nil, Message{Kind: KindApply, ID: id, Txn: "T1"})); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	write := func(p []byte) {
		t.Helper()
		if _, err := c.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	wantIDs := func(ids ...uint64) {
		t.Helper()
		for i, m := range deliverAll(t, b, len(ids)) {
			if m.ID != ids[i] {
				t.Fatalf("delivery %d: got ID %d, want %d", i, m.ID, ids[i])
			}
		}
	}

	write(append(frame(1), frame(2)...))
	wantIDs(1, 2)

	f3 := frame(3)
	write(f3[:5])
	write(f3[5:])
	wantIDs(3)

	bad := frame(5)
	bad[len(bad)-1] ^= 0xff
	write(append(append(frame(4), bad...), frame(6)...))
	wantIDs(4)
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("connection still open after a bad CRC: %v", err)
	}
	a, _ := n.Endpoint("a")
	if err := a.Send("b", Message{Kind: KindApply, ID: 7}); err != nil {
		t.Fatal(err)
	}
	wantIDs(7)
}

func TestFaultNetworkDeterministicSameSeed(t *testing.T) {
	run := func(seed int64) NetStats {
		inner := NewChanNetwork()
		f := NewFaultNetwork(inner, NetFaultPlan{
			Seed: seed, DropProb: 0.2, DupProb: 0.2, DelayProb: 0.2,
			ReorderProb: 0.2, PartitionProb: 0.05,
			// A partition outlasts the run: when one heals is a wall-clock
			// fact, and every rng draw after it would depend on that.
			Delay: 100 * time.Microsecond, PartitionWindow: time.Hour,
		})
		a, _ := f.Endpoint("a")
		if _, err := f.Endpoint("b"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 400; i++ {
			_ = a.Send("b", Message{Kind: KindApply, ID: uint64(i)})
		}
		st := f.Stats()
		f.Close()
		return st
	}
	s1, s2 := run(7), run(7)
	if s1.Dropped != s2.Dropped || s1.Sent != s2.Sent {
		t.Fatalf("same seed diverged: %+v vs %+v", s1, s2)
	}
	s3 := run(8)
	if s3.Dropped == s1.Dropped && s3.Duplicated == s1.Duplicated && s3.Reordered == s1.Reordered {
		t.Fatalf("different seeds produced identical fault decisions: %+v", s3)
	}
}

func TestFaultNetworkDropsAndDuplicates(t *testing.T) {
	inner := NewChanNetwork()
	f := NewFaultNetwork(inner, NetFaultPlan{Seed: 3, DropProb: 0.5, Delay: 100 * time.Microsecond})
	defer f.Close()
	a, _ := f.Endpoint("a")
	b, _ := f.Endpoint("b")
	const total = 200
	for i := 0; i < total; i++ {
		_ = a.Send("b", Message{Kind: KindApply, ID: uint64(i)})
	}
	st := f.Stats()
	if st.Dropped == 0 || st.Dropped == total {
		t.Fatalf("drop count %d implausible for p=0.5 over %d", st.Dropped, total)
	}
	got := deliverAll(t, b, total-int(st.Dropped))
	if len(got) != total-int(st.Dropped) {
		t.Fatalf("delivered %d, want %d", len(got), total-int(st.Dropped))
	}

	// Duplicates: every survivor arrives at least once, some twice.
	f2 := NewFaultNetwork(NewChanNetwork(), NetFaultPlan{Seed: 4, DupProb: 0.5, Delay: 100 * time.Microsecond})
	defer f2.Close()
	a2, _ := f2.Endpoint("a")
	b2, _ := f2.Endpoint("b")
	for i := 0; i < total; i++ {
		_ = a2.Send("b", Message{Kind: KindApply, ID: uint64(i)})
	}
	st2 := f2.Stats()
	if st2.Duplicated == 0 {
		t.Fatal("no duplicates at p=0.5")
	}
	seen := make(map[uint64]int)
	for i := 0; i < total+int(st2.Duplicated); i++ {
		m, ok := b2.Recv()
		if !ok {
			t.Fatalf("closed after %d", i)
		}
		seen[m.ID]++
	}
	for i := 0; i < total; i++ {
		if seen[uint64(i)] == 0 {
			t.Fatalf("message %d lost (dup-only plan must not drop)", i)
		}
	}
}

func TestFaultNetworkReorderSwapsNeighbors(t *testing.T) {
	inner := NewChanNetwork()
	f := NewFaultNetwork(inner, NetFaultPlan{Seed: 11, ReorderProb: 0.4, Delay: 200 * time.Microsecond})
	defer f.Close()
	a, _ := f.Endpoint("a")
	b, _ := f.Endpoint("b")
	const total = 100
	for i := 0; i < total; i++ {
		_ = a.Send("b", Message{Kind: KindApply, ID: uint64(i)})
	}
	got := deliverAll(t, b, total)
	inversions, seen := 0, make(map[uint64]bool)
	for i := 1; i < len(got); i++ {
		if got[i].ID < got[i-1].ID {
			inversions++
		}
	}
	for _, m := range got {
		if seen[m.ID] {
			t.Fatalf("reorder-only plan duplicated message %d", m.ID)
		}
		seen[m.ID] = true
	}
	if inversions == 0 {
		t.Fatal("no inversions at reorder p=0.4")
	}
}

func TestFaultNetworkPartitionIsOneWay(t *testing.T) {
	inner := NewChanNetwork()
	f := NewFaultNetwork(inner, NetFaultPlan{
		Seed: 2, PartitionProb: 1.0, PartitionWindow: 50 * time.Millisecond,
	})
	defer f.Close()
	a, _ := f.Endpoint("a")
	b, _ := f.Endpoint("b")
	// First a→b send starts the partition and is eaten.
	_ = a.Send("b", Message{Kind: KindApply, ID: 1})
	_ = a.Send("b", Message{Kind: KindApply, ID: 2})
	st := f.Stats()
	if st.Partitions == 0 || st.PartDrops != 2 {
		t.Fatalf("expected one partition eating both sends, got %+v", st)
	}
	// Reverse direction is its own link — also partitioned on first use
	// at p=1, proving per-link state (not global).
	_ = b.Send("a", Message{Kind: KindVote, ID: 3})
	if got := f.Stats(); got.Partitions != 2 {
		t.Fatalf("reverse link should partition independently, got %+v", got)
	}
}

func TestMuxCallRetriesThroughDrops(t *testing.T) {
	inner := NewChanNetwork()
	f := NewFaultNetwork(inner, NetFaultPlan{Seed: 5, DropProb: 0.45, Delay: 100 * time.Microsecond})
	defer f.Close()
	ce, _ := f.Endpoint("coord")
	pe, _ := f.Endpoint("part")
	var served atomic32
	var pm *Mux
	pm = NewMux(pe, func(m Message) {
		served.add(1)
		_ = pm.Reply(m, Message{Kind: KindApplyReply, OK: true, Value: m.Arg * 2})
	})
	pm.Start()
	defer pm.Close()
	cm := NewMux(ce, nil).Start()
	defer cm.Close()

	for i := 0; i < 30; i++ {
		reply, err := cm.Call("part", Message{Kind: KindApply, Arg: int64(i)}, 10*time.Millisecond, 10)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if reply.Value != int64(i)*2 {
			t.Fatalf("call %d: got %d, want %d", i, reply.Value, i*2)
		}
	}
	if served.load() < 30 {
		t.Fatalf("handler served %d < 30", served.load())
	}
}

func TestMuxCallTimesOutAgainstDeadPeer(t *testing.T) {
	n := NewChanNetwork()
	defer n.Close()
	ce, _ := n.Endpoint("coord")
	cm := NewMux(ce, nil).Start()
	defer cm.Close()
	start := time.Now()
	_, err := cm.Call("ghost", Message{Kind: KindPrepare}, 5*time.Millisecond, 2)
	if !errors.Is(err, ErrRPCTimeout) {
		t.Fatalf("got %v, want ErrRPCTimeout", err)
	}
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Fatalf("3 attempts at 5ms returned after %v", elapsed)
	}
}

func TestMuxRetriesReuseSameID(t *testing.T) {
	n := NewChanNetwork()
	defer n.Close()
	ce, _ := n.Endpoint("coord")
	pe, _ := n.Endpoint("part")

	var mu sync.Mutex
	ids := make(map[uint64]int)
	var pm *Mux
	pm = NewMux(pe, func(m Message) {
		mu.Lock()
		ids[m.ID]++
		nth := ids[m.ID]
		mu.Unlock()
		if nth < 3 {
			return // swallow the first two deliveries to force retries
		}
		_ = pm.Reply(m, Message{Kind: KindVote, OK: true})
	})
	pm.Start()
	defer pm.Close()
	cm := NewMux(ce, nil).Start()
	defer cm.Close()

	if _, err := cm.Call("part", Message{Kind: KindPrepare, Txn: "T1"}, 5*time.Millisecond, 8); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(ids) != 1 {
		t.Fatalf("retries used %d distinct IDs, want 1: %v", len(ids), ids)
	}
	for id, count := range ids {
		if count < 3 {
			t.Fatalf("id %d delivered %d times, want >=3", id, count)
		}
	}
}

func TestMuxConcurrentCallsCorrelate(t *testing.T) {
	n := NewChanNetwork()
	defer n.Close()
	ce, _ := n.Endpoint("coord")
	pe, _ := n.Endpoint("part")
	var pm *Mux
	pm = NewMux(pe, func(m Message) {
		// Reply out of order on purpose: odd args sleep first.
		if m.Arg%2 == 1 {
			time.Sleep(time.Millisecond)
		}
		_ = pm.Reply(m, Message{Kind: KindApplyReply, Value: m.Arg + 1000})
	})
	pm.Start()
	defer pm.Close()
	cm := NewMux(ce, nil).Start()
	defer cm.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reply, err := cm.Call("part", Message{Kind: KindApply, Arg: int64(i)}, 100*time.Millisecond, 3)
			if err != nil {
				errs <- err
				return
			}
			if reply.Value != int64(i)+1000 {
				errs <- fmt.Errorf("call %d got reply %d (cross-correlated)", i, reply.Value)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestMuxOverTCP(t *testing.T) {
	n := NewTCPNetwork()
	defer n.Close()
	ce, _ := n.Endpoint("coord")
	pe, _ := n.Endpoint("part")
	var pm *Mux
	pm = NewMux(pe, func(m Message) {
		_ = pm.Reply(m, Message{Kind: KindVote, OK: true, Txn: m.Txn})
	})
	pm.Start()
	defer pm.Close()
	cm := NewMux(ce, nil).Start()
	defer cm.Close()
	reply, err := cm.Call("part", Message{Kind: KindPrepare, Txn: "T9"}, 200*time.Millisecond, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reply.OK || reply.Txn != "T9" {
		t.Fatalf("tcp call reply %+v", reply)
	}
}

// atomic32 is a tiny test counter (avoids importing sync/atomic's
// Int32 just for tests that predate it in style).
type atomic32 struct {
	mu sync.Mutex
	v  int
}

func (a *atomic32) add(n int) { a.mu.Lock(); a.v += n; a.mu.Unlock() }
func (a *atomic32) load() int { a.mu.Lock(); defer a.mu.Unlock(); return a.v }
