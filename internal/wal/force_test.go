package wal

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

func forceRec(i int) Record {
	return Record{Type: TypeDecision, Txn: fmt.Sprintf("T%d", i), Mode: "commit"}
}

// The counted shape of the yield gather (no GroupWindow), which cannot be
// noisy. One forcer at a time never shares: every force is its own
// window. A crowd of 64 shares: each window's gather lets every forcer
// that is runnable reach its force point first, so windows stay at or
// below a quarter of the forces (in practice a few per round). Every
// waiter completes nil and every record is durable on reopen.
func TestForceCoalescesWindows(t *testing.T) {
	dir := t.TempDir()
	l, n, err := Open(dir, Options{SyncEvery: -1})
	if err != nil || n != 0 {
		t.Fatalf("open: n=%d err=%v", n, err)
	}
	const serial = 16
	for i := 0; i < serial; i++ {
		if err := <-l.Force([]Record{forceRec(i)}); err != nil {
			t.Fatalf("serial force %d: %v", i, err)
		}
		if got := l.SyncedLSN(); got != uint64(i+1) {
			t.Fatalf("after serial force %d: SyncedLSN = %d, want %d", i, got, i+1)
		}
	}
	if gs := l.GroupStats(); gs.Forces != serial || gs.Windows != serial || gs.MaxBatch != 1 {
		t.Fatalf("serial forcer: %+v, want %d forces in %d windows of 1", gs, serial, serial)
	}

	const crowd, rounds = 64, 8
	var wg sync.WaitGroup
	errs := make(chan error, crowd*rounds)
	for w := 0; w < crowd; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				errs <- <-l.Force([]Record{forceRec(1000*(w+1) + i)})
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("crowd force: %v", err)
		}
	}
	gs := l.GroupStats()
	forces, windows := gs.Forces-serial, gs.Windows-serial
	if forces != crowd*rounds || gs.ForcedRecords != gs.Forces {
		t.Fatalf("stats %+v, want %d crowd forces of one record", gs, crowd*rounds)
	}
	if windows > forces/4 {
		t.Fatalf("%d windows for %d concurrent forces: the gather did not coalesce (%+v)", windows, forces, gs)
	}
	if got := l.SyncedLSN(); got != gs.Forces {
		t.Fatalf("SyncedLSN = %d after %d completed forces", got, gs.Forces)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, err := ReadAll(dir)
	if err != nil || uint64(len(recs)) != gs.Forces {
		t.Fatalf("readall: %d recs err=%v, want %d", len(recs), err, gs.Forces)
	}
}

// A GroupWindow holds the daemon's window open instead of gathering by
// yielding: forces issued inside it pile up unflushed (an hour never runs
// out), any sync path completes them, and Close does not wait the hold out.
func TestForceGroupWindowHolds(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{SyncEvery: -1, GroupWindow: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	const forces = 8
	chans := make([]<-chan error, forces)
	for i := range chans {
		chans[i] = l.Force([]Record{forceRec(i)})
		runtime.Gosched()
	}
	for i, ch := range chans {
		select {
		case err := <-ch:
			t.Fatalf("force %d completed (%v) inside the window", i, err)
		default:
		}
	}
	if gs := l.GroupStats(); gs.Forces != forces || gs.Windows != 0 || l.SyncedLSN() != 0 {
		t.Fatalf("inside the window: %+v, SyncedLSN %d; want %d forces, nothing flushed", gs, l.SyncedLSN(), forces)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	for i, ch := range chans {
		if err := <-ch; err != nil {
			t.Fatalf("force %d after Sync: %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if recs, _, err := ReadAll(dir); err != nil || len(recs) != forces {
		t.Fatalf("readall: %d recs err=%v, want %d", len(recs), err, forces)
	}
}

// forceCrowd runs n goroutines forcing one record after another until the
// log closes under them; acked waits for them and returns the
// transactions whose force completed nil — the ones a caller would have
// acted on as durable.
func forceCrowd(l *Log, n int) (acked func() map[string]bool) {
	var mu sync.Mutex
	ok := map[string]bool{}
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				rec := forceRec(1000*(w+1) + i)
				err := <-l.Force([]Record{rec})
				if errors.Is(err, ErrClosed) {
					return
				}
				if err == nil {
					mu.Lock()
					ok[rec.Txn] = true
					mu.Unlock()
				}
			}
		}(w)
	}
	return func() map[string]bool {
		wg.Wait()
		return ok
	}
}

func durableTxns(t *testing.T, dir string) map[string]bool {
	t.Helper()
	recs, _, err := ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, r := range recs {
		got[r.Txn] = true
	}
	return got
}

// Abandon (crash) racing a crowd of forcers: no waiter hangs, and a nil
// completion means the record is in the crash image — never a false
// durability ack. Later forces fail with ErrClosed.
func TestForceAbandonFailsPendingWaiters(t *testing.T) {
	for round := 0; round < 20; round++ {
		dir := t.TempDir()
		l, _, err := Open(dir, Options{SyncEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		acked := forceCrowd(l, 16)
		for l.GroupStats().Windows < uint64(1+round%4) {
			runtime.Gosched()
		}
		if err := l.Abandon(nil); err != nil {
			t.Fatal(err)
		}
		ok, durable := acked(), durableTxns(t, dir)
		for txn := range ok {
			if !durable[txn] {
				t.Fatalf("round %d: force of %s completed nil but the record is not in the crash image", round, txn)
			}
		}
		if err := <-l.Force([]Record{forceRec(99)}); !errors.Is(err, ErrClosed) {
			t.Fatalf("force after abandon: %v, want ErrClosed", err)
		}
	}
}

// Close and explicit Sync racing a crowd of forcers: a sync triggered by
// any path completes the waiters pending at that moment (their bytes are
// flushed and fsynced with the rest of the buffer), Close completes the
// rest, and every nil completion is a record on disk.
func TestForceCompletedByExplicitSync(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{SyncEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	acked := forceCrowd(l, 16)
	for l.GroupStats().Forces < 400 {
		if err := l.Sync(); err != nil {
			t.Fatalf("sync: %v", err)
		}
		if l.SyncedLSN() > l.Records() {
			t.Fatalf("SyncedLSN %d ahead of %d records", l.SyncedLSN(), l.Records())
		}
		runtime.Gosched()
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	ok, durable := acked(), durableTxns(t, dir)
	if len(ok) == 0 {
		t.Fatal("no force completed before Close")
	}
	for txn := range ok {
		if !durable[txn] {
			t.Fatalf("force of %s completed nil but the record is not on disk", txn)
		}
	}
}

// Concurrent Append/Force/Sync traffic under -race, then Close: no
// waiter hangs, no record is lost, the reopened log scans clean.
func TestForceConcurrentAppendSyncClose(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{SyncEvery: 4, SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	const (
		workers   = 8
		perWorker = 40
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				switch i % 3 {
				case 0:
					if _, err := l.Append(forceRec(w*1000 + i)); err != nil {
						errs <- err
					}
				case 1:
					errs <- <-l.Force([]Record{forceRec(w*1000 + i)})
				default:
					if err := l.Sync(); err != nil {
						errs <- err
					}
					if _, err := l.Append(forceRec(w*1000 + i)); err != nil {
						errs <- err
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("concurrent op: %v", err)
		}
	}
	want := l.Records()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, info, err := ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(recs)) != want || info.TornBytes != 0 {
		t.Fatalf("reopen: %d records (want %d), torn=%d", len(recs), want, info.TornBytes)
	}
}
