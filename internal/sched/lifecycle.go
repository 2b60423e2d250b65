package sched

import (
	"sync"
	"sync/atomic"

	"compositetx/internal/comm"
	"compositetx/internal/wal"
)

// lifecycle is how every node kind — the Runtime, the Coordinator and each
// Participant — goes down. A node goes down once, by a simulated crash or
// a clean close: the crash flag flips (new work drains with ErrCrashed),
// the waiters of its lock managers wake to see it, its background loops
// are told to stop and its endpoint closes. A crash abandons the journal
// exactly as the OS would leave it (wal.Log.Abandon); a close flushes and
// closes it. close always waits for the background goroutines, so a
// close after a crash, or a second close, only waits.
type lifecycle struct {
	crashed atomic.Bool
	wal     journal        // zero when volatile or storeless
	lms     []*lockManager // woken when the node goes down
	mux     *comm.Mux      // nil until running (and for a Runtime)
	stop    chan struct{}  // closed when the node goes down
	bg      sync.WaitGroup // background goroutines
}

// run puts the node on the network and starts loop, its background loop
// (nil: none). The mux is published before it starts, so a handler
// replying to a message delivered at once (a peer may already be retrying
// against a recovering node) never races the assignment; recovery
// rebuilds a node before it runs, so no message observes it half-built.
func (n *lifecycle) run(ep comm.Endpoint, handle comm.Handler, loop func()) {
	n.mux = comm.NewMux(ep, handle)
	n.mux.Start()
	if loop != nil {
		n.bg.Add(1)
		go func() {
			defer n.bg.Done()
			loop()
		}()
	}
}

// abandon simulates a process crash: the crash flag flips, the journal
// is abandoned (torn, when non-nil, left half-written at its tail), and
// the node shuts. It reports whether this call crashed the node, and any
// error staging the crash image.
func (n *lifecycle) abandon(torn *wal.Record) (bool, error) {
	if !n.crashed.CompareAndSwap(false, true) {
		return false, nil
	}
	err := n.wal.abandon(torn)
	n.shut()
	return true, err
}

// crashNow simulates a crash of a cluster node: whatever it has not
// synced is lost, and the node answers nothing until it is recovered.
func (n *lifecycle) crashNow() { n.abandon(nil) }

// close shuts the node down cleanly, then waits for its background
// goroutines.
func (n *lifecycle) close() error {
	var err error
	if n.crashed.CompareAndSwap(false, true) {
		n.shut()
		err = n.wal.close()
	}
	n.bg.Wait()
	return err
}

// shut wakes the lock waiters, stops the background loops and closes the
// endpoint of a node whose crash flag has just flipped.
func (n *lifecycle) shut() {
	for _, lm := range n.lms {
		lm.wake()
	}
	close(n.stop)
	if n.mux != nil {
		n.mux.Close()
	}
}
