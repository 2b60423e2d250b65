package comm

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"
)

// The coalesced writer must put the exact same bytes on the wire as the
// old one-Write-per-frame path: identical [len][crc][body] frames, just
// packed into fewer syscalls. Byte-identity is what keeps the CRC check
// and mixed old/new readers sound.
func TestFrameCoalescedBytesIdentical(t *testing.T) {
	msgs := []Message{
		{Kind: KindApply, From: "coord", ID: 1, Txn: "T1", Attempt: 1, TS: 42, Node: "T1/1", Item: "acct", Mode: "incr", Arg: -7, Wait: 1000},
		{Kind: KindPrepare, From: "coord", ID: 2, Txn: "T1", Attempt: 1, TS: 42},
		{Kind: KindVote, From: "east", ID: 2, Txn: "T1", OK: true},
		{Kind: KindDecide, From: "coord", ID: 3, Txn: "T1", Attempt: 1, Commit: true},
		{Kind: KindAck, From: "east", ID: 3, Txn: "T1", OK: true},
	}

	// Reference bytes: the single-Write framing, captured off a pipe.
	var ref bytes.Buffer
	a, b := net.Pipe()
	done := make(chan struct{})
	go func() {
		io.Copy(&ref, b)
		close(done)
	}()
	for _, m := range msgs {
		if err := writeFrame(a, Encode(nil, m)); err != nil {
			t.Fatal(err)
		}
	}
	a.Close()
	<-done

	// Coalesced bytes: every frame through one buffered writer, one flush.
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	for _, m := range msgs {
		if err := writeFrameTo(bw, Encode(nil, m)); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(ref.Bytes(), buf.Bytes()) {
		t.Fatalf("coalesced framing diverges from reference: %d vs %d bytes", buf.Len(), ref.Len())
	}

	// And the packed stream round-trips through the CRC-checked reader.
	r := bytes.NewReader(buf.Bytes())
	for i, want := range msgs {
		got, err := readFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d round-trip:\n got %+v\nwant %+v", i, got, want)
		}
	}
	if _, err := readFrame(r); err != io.EOF {
		t.Fatalf("trailing bytes after %d frames: %v", len(msgs), err)
	}
}

// Concurrent senders over TCP: every message arrives, and the network's
// coalescing counters account for them in fewer flushes than messages.
func TestTCPCoalesceStats(t *testing.T) {
	n := NewTCPNetwork()
	defer n.Close()
	a, err := n.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}

	const senders, per = 8, 50
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := a.Send("b", Message{Kind: KindApply, ID: uint64(s*per + i + 1)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	wg.Wait()

	total := senders * per
	seen := map[uint64]bool{}
	for _, m := range deliverAll(t, b, total) {
		if seen[m.ID] {
			t.Fatalf("duplicate delivery of ID %d", m.ID)
		}
		seen[m.ID] = true
	}

	// The writer counts a batch after flushing it, so the last delivery can
	// beat the last count: wait for the counter, not for the receiver.
	st := n.CoalesceStats()
	for deadline := time.Now().Add(2 * time.Second); st.Messages < uint64(total) && time.Now().Before(deadline); st = n.CoalesceStats() {
		time.Sleep(time.Millisecond)
	}
	if st.Messages != uint64(total) {
		t.Fatalf("coalesce messages=%d, want %d", st.Messages, total)
	}
	if st.Flushes == 0 || st.Flushes > st.Messages {
		t.Fatalf("flushes=%d inconsistent with messages=%d", st.Flushes, st.Messages)
	}
	if st.Flushes >= st.Messages {
		t.Fatalf("no coalescing: %d flushes for %d messages", st.Flushes, st.Messages)
	}
	if st.MaxBatch < 2 {
		t.Fatalf("maxbatch=%d, want >=2", st.MaxBatch)
	}
}
