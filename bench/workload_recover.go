package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"compositetx"
	"compositetx/internal/data"
	"compositetx/internal/sched"
	"compositetx/internal/wal"
)

const (
	// recoverTraffic is how many roots a crashed run commits before it
	// dies: a few checkpoint cuts plus most of a cadence of tail, sized so
	// one recovery takes 10–30 ms on the reference box.
	recoverTraffic  = 3*checkpointEvery + 50
	recoverAccounts = 512

	// recoverLogs is how many crashed runs one set-up makes. How much a
	// recovery redoes depends on the conflicts the seed happened to draw;
	// operations cycle through the logs so no single draw decides a run.
	recoverLogs = 4

	// recoverSyncEvery is the flush policy of the crashed runs and of the
	// recovered runtimes: an fsync every 64 records, so a crash loses a
	// few commits and leaves most of a cadence of tail to redo.
	recoverSyncEvery = 64
)

// crashedLog is one crashed run: its log directory (never recovered in
// place) and what a correct recovery of it must produce.
type crashedLog struct {
	dir     string
	durable int                 // commits that survived the crash
	want    bankModel           // stores after recovery and the first root
	tail    *compositetx.System // recovered execution of the reference recovery
}

// recoverReplay: op = one crash recovery — sched.Recover over a private
// copy of a crashed log directory, one committed root on the recovered
// runtime, and the clean close that makes that root durable. Time without
// service after a crash belongs to no steady-state workload.
type recoverReplay struct {
	seed    int64
	scratch string

	logs   []crashedLog
	copies string         // directory holding the current rep's copies
	after  program        // the root committed on every recovered runtime
	last   *sched.Runtime // the latest recovered runtime: what heap_live_mb sees

	// cumulative layer counters, summed over operations
	records, redone, skipped, journaled, recoverNS float64

	corruptModel bool // tests: expect the wrong stores on purpose
}

func newRecoverReplay(seed int64, _ sizes, scratch string) workload {
	return &recoverReplay{seed: seed, scratch: scratch}
}

func (w *recoverReplay) setup() error {
	rng := rand.New(rand.NewSource(w.seed))
	w.after = newProgram([]leg{
		{"east", data.Op{Mode: data.ModeIncr, Item: "a0", Arg: -3}},
		{"west", data.Op{Mode: data.ModeIncr, Item: "a1", Arg: 3}},
	})
	for k := 0; k < recoverLogs; k++ {
		lg, err := w.crash(rng)
		if lg.dir != "" {
			w.logs = append(w.logs, lg)
		}
		if err != nil {
			return fmt.Errorf("crashed run %d: %w", k, err)
		}
	}
	if w.corruptModel {
		w.logs[len(w.logs)-1].want["east"]["a0"]++ // past the tests' warm-up, so the window meets it
	}
	return nil
}

// crash runs commit-mixed-durable-shaped traffic with checkpoints on a
// fresh runtime and kills it, then recovers a copy once to learn how many
// commits were durable: the model replays exactly those, and every
// measured recovery has to land there.
func (w *recoverReplay) crash(rng *rand.Rand) (crashedLog, error) {
	dir, err := os.MkdirTemp(w.scratch, "crash-wal-*")
	if err != nil {
		return crashedLog{}, err
	}
	lg := crashedLog{dir: dir, want: mixedSeeds(recoverAccounts)}
	rt, err := newBankRuntime(lg.want, true, dir, recoverSyncEvery)
	if err != nil {
		return lg, err
	}
	traffic := mixedPrograms(rng, recoverTraffic, recoverAccounts)
	for i := range traffic {
		if _, err := rt.Submit(fmt.Sprintf("T%d", i), traffic[i].inv); err != nil {
			return lg, fmt.Errorf("root %d: %w", i, err)
		}
	}
	// The crash: the log is abandoned before this root's commit batch is
	// journaled, and the unsynced tail of the log is lost with it.
	rt.SetFaults(sched.FaultPlan{Triggers: []sched.Trigger{{Site: sched.FaultCrash, Txn: "crash", Step: "commit"}}})
	if _, err := rt.Submit("crash", traffic[0].inv); !errors.Is(err, sched.ErrCrashed) {
		return lg, fmt.Errorf("crash injection: Submit returned %v, expected ErrCrashed", err)
	}
	if err := rt.WALError(); err != nil {
		return lg, fmt.Errorf("staging the crash image: %w", err)
	}

	ref := dir + "-reference"
	defer os.RemoveAll(ref)
	if err := copyLog(dir, ref); err != nil {
		return lg, err
	}
	rec, err := sched.Recover(sched.WALConfig{Dir: ref, SyncEvery: recoverSyncEvery})
	if err != nil {
		return lg, fmt.Errorf("reference recovery: %w", err)
	}
	if err := rec.Runtime.CloseWAL(); err != nil {
		return lg, err
	}
	lg.durable, lg.tail = rec.Stats.Committed, rec.System
	if lg.durable < recoverTraffic-recoverSyncEvery || lg.durable > recoverTraffic {
		return lg, fmt.Errorf("reference recovery found %d commits, the crashed run made %d", lg.durable, recoverTraffic)
	}
	for i := 0; i < lg.durable; i++ {
		lg.want.apply(&traffic[i])
	}
	lg.want.apply(&w.after)
	return lg, nil
}

// copyLog copies a log directory's segment files into dst.
func copyLog(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	segs, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, seg := range segs {
		if err := copyFile(filepath.Join(src, seg.Name()), filepath.Join(dst, seg.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// prepare makes one private copy of a crashed log per operation, before
// the clock; the previous rep's copies go first.
func (w *recoverReplay) prepare(ops int) (opFunc, error) {
	if err := w.dropCopies(); err != nil {
		return nil, err
	}
	var err error
	if w.copies, err = os.MkdirTemp(w.scratch, "recover-copies-*"); err != nil {
		return nil, err
	}
	dirs := make([]string, ops)
	for i := range dirs {
		dirs[i] = filepath.Join(w.copies, fmt.Sprintf("%05d", i))
		if err := copyLog(w.logs[i%len(w.logs)].dir, dirs[i]); err != nil {
			return nil, err
		}
	}
	return func(_, i int) error { return w.recoverOnce(dirs[i], &w.logs[i%len(w.logs)]) }, nil
}

func (w *recoverReplay) recoverOnce(dir string, lg *crashedLog) error {
	t0 := time.Now()
	rec, err := sched.Recover(sched.WALConfig{Dir: dir, SyncEvery: recoverSyncEvery})
	w.recoverNS += float64(time.Since(t0))
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	rt := rec.Runtime
	w.last = rt
	_, err = rt.Submit("after", w.after.inv)
	journaled := float64(rt.WALRecords()) - float64(rec.Stats.Records)
	if err = errors.Join(err, rt.CloseWAL()); err != nil {
		return fmt.Errorf("first root after recovery: %w", err)
	}
	w.records += float64(rec.Stats.Records)
	w.redone += float64(rec.Stats.Redone)
	w.skipped += float64(rec.Stats.Skipped)
	w.journaled += journaled

	if !rec.Verdict.Correct {
		return fmt.Errorf("recovered execution is not Comp-C: %s", rec.Verdict.Reason)
	}
	if rec.Stats.Committed != lg.durable {
		return fmt.Errorf("recovered %d commits, the reference recovery %d", rec.Stats.Committed, lg.durable)
	}
	for comp := range lg.want {
		if err := lg.want.diff(comp, rt.Store(comp).Snapshot()); err != nil {
			return fmt.Errorf("recovered state: %w", err)
		}
	}
	return nil
}

func (w *recoverReplay) counters() map[string]float64 {
	return map[string]float64{
		"records":     w.records,
		"redone":      w.redone,
		"skipped":     w.skipped,
		"recover_ns":  w.recoverNS,
		"wal_records": w.journaled,
		"wal_bytes":   procWriteBytes(),
	}
}

func (w *recoverReplay) verify() []error { return nil }

func (w *recoverReplay) dropCopies() error {
	if w.copies == "" {
		return nil
	}
	err := os.RemoveAll(w.copies)
	w.copies = ""
	return err
}

func (w *recoverReplay) close() error {
	err := w.dropCopies()
	for _, lg := range w.logs {
		err = errors.Join(err, os.RemoveAll(lg.dir))
	}
	return err
}

func (w *recoverReplay) probe(p *prober) error {
	ops := float64(p.ops)
	p.set("sched.recover_records_per_ms", p.delta["records"]/(p.delta["recover_ns"]/1e6))
	p.set("sched.recover_redone_per_op", p.delta["redone"]/ops)
	p.set("sched.recover_skipped_per_op", p.delta["skipped"]/ops)
	p.set("wal.records_per_commit", p.delta["wal_records"]/ops)
	p.set("wal.bytes_per_commit", p.delta["wal_bytes"]/ops)

	var size int64
	var scan time.Duration
	for _, lg := range w.logs {
		segs, err := os.ReadDir(lg.dir)
		if err != nil {
			return err
		}
		for _, seg := range segs {
			info, err := seg.Info()
			if err != nil {
				return err
			}
			size += info.Size()
		}
		scan += p.call("wal.ReadAll", func() { _, _, err = wal.ReadAll(lg.dir) })
		if err != nil {
			return fmt.Errorf("scan probe: %w", err)
		}
	}
	p.set("wal.scan_ms_per_mb", float64(scan.Microseconds())/1e3/(float64(size)/(1<<20)))

	var appendUS float64
	for _, lg := range w.logs {
		us, err := appendPerRoot(p, lg.tail)
		if err != nil {
			return err
		}
		appendUS += us
	}
	p.set("front.append_us_per_root", appendUS/float64(len(w.logs)))
	return nil
}
