package sched

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"compositetx/internal/data"
)

func writeStep(comp, item string, v int64) Step {
	return leafAt(comp, item, data.Op{Mode: data.ModeWrite, Item: item, Arg: v})
}

func readStep(comp, item string) Step {
	return leafAt(comp, item, data.Op{Mode: data.ModeRead, Item: item})
}

// reuseRoot is one root of a client's script: its program, the reads it
// must return, and whether it ends in a client abort.
type reuseRoot struct {
	name  string
	prog  Invocation
	want  []int64
	abort bool
}

// clientScript is client c's sequence of roots over its own items, in a
// five-root cycle: write and read back, a snapshot read (optimistic on a
// Runtime), write and read back, a write that ends in Step.Fail, and a
// pessimistic read with a commuting increment. Clients share no item, so
// the committed execution does not depend on how they interleave.
func clientScript(c, roots int) []reuseRoot {
	x, w := fmt.Sprintf("c%d-x", c), fmt.Sprintf("c%d-w", c)
	val := func(k int) int64 { return int64(100*c + k) }
	out := make([]reuseRoot, roots)
	for k := range out {
		r := reuseRoot{name: fmt.Sprintf("C%d-%d", c, k)}
		switch k % 5 {
		case 0, 2:
			r.prog = Invocation{Component: "bank", Steps: []Step{writeStep("east", x, val(k)), readStep("east", x)}}
			r.want = []int64{val(k)}
		case 1:
			r.prog = Invocation{Component: "bank", SnapshotRead: true, Steps: []Step{readStep("east", x)}}
			r.want = []int64{val(k - 1)}
		case 3:
			r.prog = Invocation{Component: "bank", Steps: []Step{writeStep("east", x, -1), {Fail: errors.New("client gives up")}}}
			r.abort = true
		case 4:
			r.prog = Invocation{Component: "bank", Steps: []Step{
				readStep("east", x),
				leafAt("west", w, data.Op{Mode: data.ModeIncr, Item: w, Arg: 1}),
			}}
			r.want = []int64{val(k - 2)}
		}
		out[k] = r
	}
	return out
}

// replayCommitted runs the committed roots of the scripts one after
// another on a fresh Hybrid bank runtime and returns its encoded record.
func replayCommitted(t *testing.T, scripts [][]reuseRoot) []byte {
	t.Helper()
	ref := BankTopology().NewRuntime(Hybrid)
	for _, script := range scripts {
		for _, r := range script {
			if r.abort {
				continue
			}
			if _, err := ref.Submit(r.name, r.prog); err != nil {
				t.Fatalf("reference %s: %v", r.name, err)
			}
		}
	}
	return encodeSystem(t, ref.RecordedSystem())
}

// TestAttemptReuse: roots recycle their attempt, and nothing of one root
// may reach the next — not its staged record, undo log, lock owners,
// snapshot registrations or touched participants, and not the read
// values the previous caller now owns.
func TestAttemptReuse(t *testing.T) {
	const clients, roots = 4, 20

	// Four clients run their scripts concurrently on a Runtime and on a
	// Cluster. Every result is checked only after every client finished,
	// so a Values slice a later root wrote into would show; the committed
	// record must equal the same committed programs replayed on a fresh
	// runtime.
	t.Run("clients", func(t *testing.T) {
		scripts := make([][]reuseRoot, clients)
		for c := range scripts {
			scripts[c] = clientScript(c, roots)
		}
		want := replayCommitted(t, scripts)
		rt := BankTopology().NewRuntime(Hybrid)
		cl := startCluster(t, DistConfig{Protocol: Hybrid, Topo: BankTopology(), Transport: "chan"})
		for _, s := range []struct {
			name string
			sub  Submitter
			rec  func() []byte
		}{
			{"runtime", rt, func() []byte { return encodeSystem(t, rt.RecordedSystem()) }},
			{"cluster", cl, func() []byte { return encodeSystem(t, cl.RecordedSystem()) }},
		} {
			results := make([][]*TxResult, clients)
			var wg sync.WaitGroup
			for c := range scripts {
				results[c] = make([]*TxResult, roots)
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for k, r := range scripts[c] {
						res, err := s.sub.Submit(r.name, r.prog)
						if r.abort != errors.Is(err, ErrClientAbort) || (!r.abort && err != nil) {
							t.Errorf("%s %s: err = %v, client abort expected: %v", s.name, r.name, err, r.abort)
							return
						}
						results[c][k] = res
					}
				}(c)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			for c, script := range scripts {
				for k, r := range script {
					if res := results[c][k]; !r.abort && !slices.Equal(res.Values, r.want) {
						t.Errorf("%s %s: read %v after the later roots, want %v", s.name, r.name, res.Values, r.want)
					}
				}
			}
			if got := s.rec(); !bytes.Equal(got, want) {
				t.Fatalf("%s: recorded execution differs from the committed programs on a fresh runtime:\ngot:  %s\nwant: %s", s.name, got, want)
			}
		}
		rt.ck.mu.Lock()
		defer rt.ck.mu.Unlock()
		if n := len(rt.ck.snaps); n != 0 {
			t.Fatalf("%d finished attempts still registered as snapshot holders", n)
		}
	})

	// One root retries twice over — an injected apply fault re-runs its
	// first subtransaction locally, then wait-die sacrifices it to an
	// older root holding x — and commits; a client abort and a clean root
	// follow. The record is byte-identical to the committed programs run
	// alone on a fresh runtime.
	t.Run("retry-abort-clean", func(t *testing.T) {
		rt := BankTopology().NewRuntime(Hybrid)
		rt.SetFaults(FaultPlan{Triggers: []Trigger{{Site: FaultApply, Txn: "T2", Step: "T2/1/1"}}})
		held, release := make(chan struct{}), make(chan struct{})
		var heldOnce, releaseOnce sync.Once
		attempts := 0
		t1 := func(hold bool) Invocation {
			second := leafAt("east", "done", data.Op{Mode: data.ModeIncr, Item: "done", Arg: 1})
			if hold {
				second.Sync = func() { heldOnce.Do(func() { close(held) }); <-release }
			}
			return Invocation{Component: "bank", Steps: []Step{writeStep("east", "x", 10), second}}
		}
		t2 := func(hold bool) Invocation {
			first := writeStep("east", "y", 77)
			if hold {
				// T2's second attempt lets T1 finish: the first one is
				// sure to find x held by the older T1 and die.
				first.Sync = func() {
					if attempts++; attempts == 2 {
						releaseOnce.Do(func() { close(release) })
					}
				}
			}
			return Invocation{Component: "bank", Steps: []Step{first, writeStep("east", "x", 20)}}
		}
		t4 := Invocation{Component: "bank", Steps: []Step{readStep("east", "x"), readStep("east", "y")}}

		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := rt.Submit("T1", t1(true)); err != nil {
				t.Error(err)
			}
		}()
		<-held
		res, err := rt.Submit("T2", t2(true))
		releaseOnce.Do(func() { close(release) }) // T2 failed before its second attempt
		wg.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if res.Retries < 1 {
			t.Fatalf("T2 retries = %d, want at least one wait-die retry", res.Retries)
		}
		if _, err := rt.Submit("T3", Invocation{Component: "bank", Steps: []Step{
			writeStep("east", "x", -1), writeStep("west", "z", -1), {Fail: errors.New("client gives up")},
		}}); !errors.Is(err, ErrClientAbort) {
			t.Fatalf("T3: err = %v, want a client abort", err)
		}
		res, err = rt.Submit("T4", t4)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(res.Values, []int64{20, 77}) {
			t.Fatalf("T4 read %v, want [20 77]", res.Values)
		}
		m := rt.Metrics()
		if m.Aborts < 1 || m.SubRetries != 1 || m.ClientAborts != 1 || m.Commits != 3 {
			t.Fatalf("metrics = %+v, want a wait-die abort, one sub-retry, one client abort, three commits", m)
		}

		ref := BankTopology().NewRuntime(Hybrid)
		for i, prog := range []Invocation{t1(false), t2(false), t4} {
			if _, err := ref.Submit(fmt.Sprintf("T%d", []int{1, 2, 4}[i]), prog); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := encodeSystem(t, rt.RecordedSystem()), encodeSystem(t, ref.RecordedSystem()); !bytes.Equal(got, want) {
			t.Fatalf("recorded execution differs from the committed programs on a fresh runtime:\ngot:  %s\nwant: %s", got, want)
		}
	})

	// Optimistic and pessimistic roots alternate on one client. Each
	// optimistic root registers its snapshot afresh (a recycled attempt
	// must not believe it is already registered), a pessimistic root never
	// does, no snapshot outlives its root, and no read is refreshed.
	t.Run("optimistic", func(t *testing.T) {
		seeded := func() *Runtime {
			rt := BankTopology().NewRuntime(Hybrid)
			rt.Store("east").Set("x", 1)
			rt.Store("east").Set("y", 2)
			return rt
		}
		registered := func(rt *Runtime) int {
			rt.ck.mu.Lock()
			defer rt.ck.mu.Unlock()
			return len(rt.ck.snaps)
		}
		type root struct {
			name string
			inv  Invocation
			want []int64
		}
		// programs checks, before its last read, how many snapshot holders
		// rt has registered.
		programs := func(rt *Runtime) []root {
			expect := func(n int) Step {
				s := readStep("east", "y")
				s.Sync = func() {
					if got := registered(rt); got != n {
						t.Errorf("%d snapshot holders registered mid-root, want %d", got, n)
					}
				}
				return s
			}
			return []root{
				{"O1", Invocation{Component: "bank", SnapshotRead: true, Steps: []Step{readStep("east", "x"), expect(1)}}, []int64{1, 2}},
				{"P2", Invocation{Component: "bank", Steps: []Step{writeStep("east", "x", 5), readStep("east", "x"), expect(0)}}, []int64{5, 2}},
				{"O3", Invocation{Component: "bank", SnapshotRead: true, Steps: []Step{readStep("east", "x"), expect(1)}}, []int64{5, 2}},
				{"P4", Invocation{Component: "bank", Steps: []Step{readStep("east", "x"), expect(0)}}, []int64{5, 2}},
			}
		}
		rt, ref := seeded(), seeded()
		for _, on := range []*Runtime{rt, ref} {
			for _, p := range programs(on) {
				res, err := on.Submit(p.name, p.inv)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(res.Values, p.want) {
					t.Fatalf("%s read %v, want %v", p.name, res.Values, p.want)
				}
				if n := registered(on); n != 0 {
					t.Fatalf("after %s: %d snapshot holders still registered", p.name, n)
				}
			}
		}
		if m := rt.Metrics(); m.ValidationRefreshes != 0 || m.ValidationAborts != 0 {
			t.Fatalf("refreshes=%d validation aborts=%d, want 0/0: a recycled snapshot stamp went stale", m.ValidationRefreshes, m.ValidationAborts)
		}
		if got, want := encodeSystem(t, rt.RecordedSystem()), encodeSystem(t, ref.RecordedSystem()); !bytes.Equal(got, want) {
			t.Fatalf("recorded execution differs from a fresh runtime's:\ngot:  %s\nwant: %s", got, want)
		}
	})
}
