package sched

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"compositetx/internal/data"
	"compositetx/internal/wal"
)

// seatsTopo is one bounded escrow counter component, the root's own.
func seatsTopo() *Topology {
	return &Topology{
		Specs:   []ComponentSpec{{Name: "seats", HasStore: true, Modes: data.EscrowCounterTable()}},
		Entries: []string{"seats"},
	}
}

func seatsOp(mode data.Mode, arg int64) Step {
	return Step{Op: &data.Op{Mode: mode, Item: "n", Arg: arg}}
}

// holdRelease starts, on seats at n = 0 under NoCC, T1 = [release 5,
// then] and once T1 has released, commits T2 = [reserve 5]: the seats T1
// would give back on abort are gone. then runs after resume is called;
// T1's error arrives on the channel.
func holdRelease(t *testing.T, submit func(string, Invocation) (*TxResult, error), then Step) (<-chan error, func()) {
	t.Helper()
	released, t2done := make(chan struct{}), make(chan struct{})
	var once sync.Once
	then.Sync = func() { once.Do(func() { close(released) }); <-t2done }
	errc := make(chan error, 1)
	go func() {
		_, err := submit("T1", Invocation{Component: "seats", Steps: []Step{seatsOp(data.ModeRelease, 5), then}})
		errc <- err
	}()
	<-released
	if _, err := submit("T2", Invocation{Component: "seats", Steps: []Step{seatsOp(data.ModeReserve, 5)}}); err != nil {
		close(t2done)
		t.Fatalf("T2: %v", err)
	}
	return errc, func() { close(t2done) }
}

// escrowLeak runs the one schedule whose rollback cannot succeed: T1
// aborts client-side after T2 took its seats, so its compensating
// reserve finds a zero balance on every try.
func escrowLeak(t *testing.T, submit func(string, Invocation) (*TxResult, error)) {
	t.Helper()
	errc, resume := holdRelease(t, submit, Step{Fail: errors.New("client abort")})
	resume()
	if err := <-errc; !errors.Is(err, ErrClientAbort) {
		t.Fatalf("T1: %v, want a client abort", err)
	}
}

// checkLeak asserts the one quarantine escrowLeak causes: T1's release,
// reported (live, with the store's refusal), logged, and left in a store
// that reads n = 0.
func checkLeak(t *testing.T, door string, reported []Quarantine, dir string, n int64) {
	t.Helper()
	if len(reported) != 1 || reported[0].Component != "seats" || reported[0].Txn != "T1" ||
		reported[0].Op.Mode != data.ModeRelease {
		t.Fatalf("%s: quarantine report %+v, want T1's release at seats", door, reported)
	}
	if door == "live" && !errors.Is(reported[0].Err, data.ErrInsufficient) {
		t.Fatalf("live: quarantine error %v, want the store's ErrInsufficient", reported[0].Err)
	}
	recs, _, err := wal.ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(recs, func(r wal.Record) bool { return r.Type == wal.TypeQuarantine && r.Txn == "T1" }) {
		t.Fatalf("%s: no TypeQuarantine record for T1 in the log", door)
	}
	if n != 0 {
		t.Fatalf("%s: n = %d, want 0 (T2 holds the released seats)", door, n)
	}
}

// TestDistCompensationQuarantined runs escrowLeak through both front
// doors of a component. Each retries the failing compensation, journals
// TypeQuarantine, reports the leak, and recovers from its log afterwards
// re-reporting it: the log's compensation record never took effect, so
// recovery must not replay it.
func TestDistCompensationQuarantined(t *testing.T) {
	t.Run("runtime", func(t *testing.T) {
		rt := seatsTopo().NewRuntime(NoCC)
		rt.Store("seats").Set("n", 0)
		dir := t.TempDir()
		if err := rt.EnableWAL(WALConfig{Dir: dir}); err != nil {
			t.Fatal(err)
		}
		escrowLeak(t, rt.Submit)
		checkLeak(t, "live", rt.Quarantined(), dir, rt.Store("seats").Get("n"))
		if m := rt.Metrics(); m.CompensationFailures != 1 {
			t.Fatalf("CompensationFailures = %d, want 1", m.CompensationFailures)
		}
		if err := rt.CloseWAL(); err != nil {
			t.Fatal(err)
		}
		rec, err := Recover(WALConfig{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer rec.Runtime.CloseWAL()
		checkLeak(t, "recovered", rec.Runtime.Quarantined(), dir, rec.Runtime.Store("seats").Get("n"))
	})
	t.Run("cluster", func(t *testing.T) {
		root := t.TempDir()
		cl := startCluster(t, DistConfig{Protocol: NoCC, Topo: seatsTopo(), Transport: "chan",
			WALRoot: root, Seeds: map[string]map[string]int64{"seats": {"n": 0}}})
		escrowLeak(t, cl.Submit)
		dir := partDir(root, "seats")
		checkLeak(t, "live", cl.participant("seats").leaks.all(), dir, cl.StoreSnapshot("seats")["n"])
		if err := cl.CrashParticipant("seats"); err != nil {
			t.Fatal(err)
		}
		if err := cl.RecoverParticipant("seats"); err != nil {
			t.Fatal(err)
		}
		checkLeak(t, "recovered", cl.participant("seats").leaks.all(), dir, cl.StoreSnapshot("seats")["n"])
	})
}

// TestRecoverQuarantinesRefusedUndo: a crash while T1 still holds the
// seats T2 has since taken leaves T1 a loser whose inverse the store
// refuses at recovery too. Both doors' recovery runs the component's undo
// step, so it quarantines and reports the leak instead of refusing its
// own log, and a second recovery re-reports it from the log.
func TestRecoverQuarantinesRefusedUndo(t *testing.T) {
	t.Run("runtime", func(t *testing.T) {
		rt := seatsTopo().NewRuntime(NoCC)
		rt.Store("seats").Set("n", 0)
		dir := t.TempDir()
		if err := rt.EnableWAL(WALConfig{Dir: dir}); err != nil {
			t.Fatal(err)
		}
		rt.SetFaults(FaultPlan{Triggers: []Trigger{{Site: FaultCrash, Txn: "T1", Step: "T1/2"}}})
		errc, resume := holdRelease(t, rt.Submit, seatsOp(data.ModeRelease, 1))
		resume()
		if err := <-errc; !errors.Is(err, ErrCrashed) {
			t.Fatalf("T1: %v, want the crash", err)
		}
		for _, door := range []string{"live", "recovered"} {
			rec, err := Recover(WALConfig{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			checkLeak(t, door, rec.Runtime.Quarantined(), dir, rec.Runtime.Store("seats").Get("n"))
			if err := rec.Runtime.CloseWAL(); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Run("cluster", func(t *testing.T) {
		root := t.TempDir()
		cl := startCluster(t, DistConfig{Protocol: NoCC, Topo: seatsTopo(), Transport: "chan",
			WALRoot: root, Seeds: map[string]map[string]int64{"seats": {"n": 0}}})
		errc, resume := holdRelease(t, cl.Submit, Step{Fail: errors.New("client abort")})
		dir := partDir(root, "seats")
		for _, door := range []string{"live", "recovered"} {
			if err := cl.CrashParticipant("seats"); err != nil {
				t.Fatal(err)
			}
			if err := cl.RecoverParticipant("seats"); err != nil {
				t.Fatal(err)
			}
			checkLeak(t, door, cl.participant("seats").leaks.all(), dir, cl.StoreSnapshot("seats")["n"])
		}
		resume()
		if err := <-errc; !errors.Is(err, ErrClientAbort) {
			t.Fatalf("T1: %v, want a client abort", err)
		}
	})
}

// TestDistParticipantStoreBounded: a participant's store has no snapshot
// readers, so a decision compacts what the attempt touched; the version
// chains stay bounded however many transfers commit.
func TestDistParticipantStoreBounded(t *testing.T) {
	cl := startCluster(t, distConfig(t, OpenNested, "chan", false))
	for i, prog := range transferPrograms(2000) {
		if _, err := cl.Submit(fmt.Sprintf("T%d", i+1), prog); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"east", "west"} {
		if n := cl.participant(name).c.store.VersionCount("acct"); n > 2 {
			t.Errorf("%s: acct holds %d versions after 2000 transfers, want <= 2", name, n)
		}
	}
	distConserved(t, cl)
}

// leafLog renders the leaf records of the log in dir — apply, apply-fail,
// compensation, quarantine — with each Ref as the index of the apply it
// names among them, so logs with different record layouts compare.
func leafLog(t *testing.T, dir string) []string {
	t.Helper()
	scan, err := wal.ScanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	applyAt := map[uint64]int{}
	for i, r := range scan.Records {
		switch r.Type {
		case wal.TypeApply, wal.TypeApplyFail, wal.TypeComp, wal.TypeQuarantine:
		default:
			continue
		}
		ref := -1
		if r.Type == wal.TypeApply {
			applyAt[scan.Info.FirstLSN+uint64(i)] = len(out)
		} else if at, ok := applyAt[r.Ref]; ok {
			ref = at
		} else {
			t.Fatalf("%s record %d names LSN %d, no apply", r.Type, i, r.Ref)
		}
		out = append(out, fmt.Sprintf("%s txn=%s node=%s comp=%s item=%s mode=%s impl=%s arg=%d prev=%d ref=%d",
			r.Type, r.Txn, r.Node, r.Comp, r.Item, r.Mode, r.Impl, r.Arg, r.Prev, ref))
	}
	return out
}

// TestJournalLeafParity runs the same one-component programs through a
// Runtime and a one-participant Cluster — an increment, a write, a reserve
// the store refuses, a client abort, and under NoCC escrowLeak's failing
// compensation — and asserts both front doors journal the same leaf
// records: one write-ahead apply, one undo step.
func TestJournalLeafParity(t *testing.T) {
	for _, proto := range []Protocol{OpenNested, NoCC} {
		t.Run(proto.String(), func(t *testing.T) {
			rt := seatsTopo().NewRuntime(proto)
			rt.Store("seats").Set("n", 0)
			rtDir := t.TempDir()
			if err := rt.EnableWAL(WALConfig{Dir: rtDir}); err != nil {
				t.Fatal(err)
			}
			defer rt.CloseWAL()
			root := t.TempDir()
			cl := startCluster(t, DistConfig{Protocol: proto, Topo: seatsTopo(), Transport: "chan",
				WALRoot: root, Seeds: map[string]map[string]int64{"seats": {"n": 0}}})

			for _, submit := range []func(string, Invocation) (*TxResult, error){rt.Submit, cl.Submit} {
				if proto == NoCC {
					escrowLeak(t, submit)
				}
				progs := []struct {
					name  string
					steps []Step
					fails bool
				}{
					{"T3", []Step{seatsOp(data.ModeIncr, 3)}, false},
					{"T4", []Step{seatsOp(data.ModeWrite, 7)}, false},
					{"T5", []Step{seatsOp(data.ModeReserve, 100)}, true},
					{"T6", []Step{seatsOp(data.ModeIncr, 2), {Fail: errors.New("client abort")}}, true},
				}
				for _, p := range progs {
					_, err := submit(p.name, Invocation{Component: "seats", Steps: p.steps})
					if (err != nil) != p.fails {
						t.Fatalf("%s: err = %v, want failure %v", p.name, err, p.fails)
					}
				}
			}
			if got, want := rt.Store("seats").Get("n"), cl.StoreSnapshot("seats")["n"]; got != 7 || want != 7 {
				t.Fatalf("n = %d in process, %d in the cluster, want 7", got, want)
			}
			local, dist := leafLog(t, rtDir), leafLog(t, partDir(root, "seats"))
			if !slices.Equal(local, dist) {
				t.Fatalf("leaf records differ:\nruntime:\n  %s\ncluster:\n  %s",
					strings.Join(local, "\n  "), strings.Join(dist, "\n  "))
			}
			covered := []wal.Type{wal.TypeApplyFail, wal.TypeComp}
			if proto == NoCC {
				covered = append(covered, wal.TypeQuarantine)
			}
			for _, typ := range covered {
				if !slices.ContainsFunc(local, func(s string) bool { return strings.HasPrefix(s, typ.String()+" ") }) {
					t.Fatalf("no %s record: the parity check does not cover it", typ)
				}
			}
		})
	}
}

// TestRecoverRefusedCompensation: a log whose compensation record is
// durable but whose quarantine is not. Under NoCC the store refuses T1's
// inverse at its log position (T2 holds the seats), though at run time a
// retry may have found the seats T3 released after it. Recovery takes the
// refusal for the quarantine the run would have written: it succeeds,
// keeps the leak, journals its quarantine and reports it once, and a
// second recovery changes nothing.
func TestRecoverRefusedCompensation(t *testing.T) {
	meta, err := json.Marshal(walMeta{Version: 1, Protocol: NoCC.String(), Topology: topologyToDoc(seatsTopo())})
	if err != nil {
		t.Fatal(err)
	}
	release, reserve := data.Op{Mode: data.ModeRelease, Item: "n", Arg: 5}, data.Op{Mode: data.ModeReserve, Item: "n", Arg: 5}
	dir := writeLog(t, wal.Options{}, func(l *wal.Log) {
		l.AppendBatch([]wal.Record{
			{Type: wal.TypeMeta, Meta: meta},
			{Type: wal.TypeSeed, Comp: "seats", Item: "n"},
			applyRecord("T1", "T1/1", "seats", release, 0), // LSN 3
			applyRecord("T2", "T2/1", "seats", reserve, 5),
			{Type: wal.TypeCommit, Txn: "T2"},
			compRecord("T1", "seats", reserve, 3),
			applyRecord("T3", "T3/1", "seats", release, 0),
			{Type: wal.TypeCommit, Txn: "T3"},
		})
	})
	want := []string{"seats T1 " + release.String()}
	var first []wal.Record
	for _, pass := range []string{"first", "second"} {
		before := recordCount(t, dir)
		rec, err := Recover(WALConfig{Dir: dir})
		if err != nil {
			t.Fatalf("%s recovery: %v", pass, err)
		}
		if n := rec.Runtime.Store("seats").Get("n"); n != 5 {
			t.Errorf("%s recovery: n = %d, want 5 (T1's release leaked, T3's kept)", pass, n)
		}
		if got := leakKeys(rec.Runtime.Quarantined()); !slices.Equal(got, want) {
			t.Errorf("%s recovery reports %v, want %v", pass, got, want)
		}
		if err := rec.Runtime.CloseWAL(); err != nil {
			t.Fatal(err)
		}
		recs, _, err := wal.ReadAll(dir)
		if err != nil {
			t.Fatal(err)
		}
		if pass == "first" {
			first = recs
			added := recs[before:]
			if len(added) != 2 || added[0].Type != wal.TypeQuarantine || added[0].Ref != 3 || added[1].Type != wal.TypeAbort {
				t.Fatalf("first recovery appended %+v, want T1's quarantine and abort marker", added)
			}
		} else if len(recs) != len(first) {
			t.Fatalf("second recovery appended %d records", len(recs)-len(first))
		}
	}
}
