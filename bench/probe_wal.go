package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"compositetx/internal/wal"
)

// commitBatch is a synthetic commit batch of n records shaped like the
// runtime's: node declarations, conflict events, the commit marker.
func commitBatch(n int) []wal.Record {
	n = max(n, 1)
	recs := make([]wal.Record, 0, n)
	for i := 0; len(recs) < n-1; i++ {
		node := fmt.Sprintf("T123456/%d", i/2+1)
		if i%2 == 0 {
			recs = append(recs, wal.Record{Type: wal.TypeNode, Txn: "T123456", Node: node, Parent: "T123456", Sched: "east"})
		} else {
			recs = append(recs, wal.Record{Type: wal.TypeEvent, Txn: "T123456", Node: node + "/1", Parent: node,
				Comp: "east", Item: "a1234", Mode: "incr", Seq: 1234567})
		}
	}
	return append(recs, wal.Record{Type: wal.TypeCommit, Txn: "T123456"})
}

// probeWAL measures the log on the benchmark's own directory: buffered
// append of a commit-sized batch, a bare fsync, and a force with one
// waiter (append + daemon hand-off + fsync).
func probeWAL(p *prober, scratch string, recordsPerCommit int) (err error) {
	dir, err := os.MkdirTemp(scratch, "probe-wal-*")
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, os.RemoveAll(dir)) }()
	batch := commitBatch(recordsPerCommit)

	l, _, err := wal.Open(filepath.Join(dir, "log"), wal.Options{SyncEvery: -1})
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, l.Close()) }()

	appends, syncs := p.n(4000), p.n(32)
	d := p.call("wal.Log.AppendBatch", func() {
		for i := 0; i < appends; i++ {
			if _, err = l.AppendBatch(batch); err != nil {
				return
			}
		}
	})
	if err != nil {
		return fmt.Errorf("wal append probe: %w", err)
	}
	p.set("wal.append_us_per_record", float64(d.Microseconds())/float64(appends*len(batch)))

	fsync := make([]float64, 0, syncs)
	force := make([]float64, 0, syncs)
	for i := 0; i < syncs; i++ {
		if _, err = l.AppendBatch(batch); err != nil {
			return fmt.Errorf("wal fsync probe: %w", err)
		}
		d := p.call("wal.Log.Sync", func() { err = l.Sync() })
		if err != nil {
			return fmt.Errorf("wal fsync probe: %w", err)
		}
		fsync = append(fsync, float64(d.Microseconds()))
	}
	for i := 0; i < syncs; i++ {
		d := p.call("wal.Log.Force", func() { err = <-l.Force(batch) })
		if err != nil {
			return fmt.Errorf("wal force probe: %w", err)
		}
		force = append(force, float64(d.Microseconds()))
	}
	p.set("wal.fsync_us", median(fsync))
	p.set("wal.force_us", median(force))
	return nil
}
