package comm

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// NetFaultPlan configures the seeded network fault injector — the
// seventh fault family alongside sched's FaultCrash. Probabilities are
// per-message and independent; a message can be both delayed and
// duplicated. Partitions are one-way per (from,to) link: a partitioned
// link drops everything in that direction for PartitionWindow, then
// heals (and may re-partition on a later message). Zero value = no
// faults (the wrapper becomes a transparent pass-through).
type NetFaultPlan struct {
	Seed int64 // rng seed; same seed + same traffic order = same faults

	DropProb      float64 // silently lose the message
	DupProb       float64 // deliver twice
	DelayProb     float64 // hold the message for ~Delay before delivery
	ReorderProb   float64 // hold the message until the next one on the link passes it
	PartitionProb float64 // start a one-way partition on this link

	Delay           time.Duration // mean injected delay (jittered 0.5x–1.5x); default 2ms
	PartitionWindow time.Duration // how long a one-way partition lasts; default 20ms
}

// Enabled reports whether the plan injects any fault at all.
func (p NetFaultPlan) Enabled() bool {
	return p.DropProb > 0 || p.DupProb > 0 || p.DelayProb > 0 ||
		p.ReorderProb > 0 || p.PartitionProb > 0
}

// NetStats counts injector decisions, for experiment tables and tests.
type NetStats struct {
	Sent       uint64 // messages offered to the injector
	Dropped    uint64
	Duplicated uint64
	Delayed    uint64
	Reordered  uint64
	Partitions uint64 // one-way partitions started
	PartDrops  uint64 // messages lost to an active partition

	// Coalesce carries the TCP transport's frames-vs-messages counters
	// when the wrapped network runs over TCP (injection happens above the
	// coalescing layer, per message, so fault semantics are unchanged by
	// batching). Zero on the channel transport.
	Coalesce CoalesceStats
}

// FaultNetwork wraps an inner Network and perturbs Send according to a
// NetFaultPlan. All randomness comes from one seeded rng consulted under
// a mutex, so a fixed seed plus a deterministic traffic order replays
// the same fault decisions — the property E15's fixed-seed cells and the
// idempotence sweep rely on.
type FaultNetwork struct {
	inner Network
	plan  NetFaultPlan

	mu      sync.Mutex
	rng     *rand.Rand
	links   map[linkKey]*linkState
	stats   NetStats
	pending sync.WaitGroup // delay/reorder goroutines in flight
	closed  atomic.Bool
}

type linkKey struct{ from, to string }

type linkState struct {
	partedUntil time.Time // one-way partition deadline (zero = healthy)
	held        *Message  // reorder buffer: at most one message held back
}

// NewFaultNetwork wraps inner with plan. Defaults: Delay 2ms,
// PartitionWindow 20ms.
func NewFaultNetwork(inner Network, plan NetFaultPlan) *FaultNetwork {
	if plan.Delay <= 0 {
		plan.Delay = 2 * time.Millisecond
	}
	if plan.PartitionWindow <= 0 {
		plan.PartitionWindow = 20 * time.Millisecond
	}
	return &FaultNetwork{
		inner: inner,
		plan:  plan,
		rng:   rand.New(rand.NewSource(plan.Seed)),
		links: make(map[linkKey]*linkState),
	}
}

// Stats returns a snapshot of the injector counters.
func (f *FaultNetwork) Stats() NetStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// Endpoint registers name on the inner network and returns a wrapper
// whose Send passes through the injector.
func (f *FaultNetwork) Endpoint(name string) (Endpoint, error) {
	ep, err := f.inner.Endpoint(name)
	if err != nil {
		return nil, err
	}
	return &faultEndpoint{net: f, inner: ep}, nil
}

// Close stops injecting (in-flight delayed messages are flushed
// immediately) and closes the inner network.
func (f *FaultNetwork) Close() error {
	f.mu.Lock()
	f.closed.Store(true)
	f.mu.Unlock()
	f.pending.Wait()
	return f.inner.Close()
}

// background runs deliver on a goroutine Close waits for, after d. A Send
// that races Close (a handler still replying) must not Add to the group
// Close is already waiting on: once closed, deliver runs inline, at once.
func (f *FaultNetwork) background(d time.Duration, deliver func()) {
	f.mu.Lock()
	closed := f.closed.Load()
	if !closed {
		f.pending.Add(1)
	}
	f.mu.Unlock()
	if closed {
		deliver()
		return
	}
	go func() {
		defer f.pending.Done()
		if !f.closed.Load() {
			time.Sleep(d)
		}
		deliver()
	}()
}

type faultEndpoint struct {
	net   *FaultNetwork
	inner Endpoint
}

func (e *faultEndpoint) Name() string          { return e.inner.Name() }
func (e *faultEndpoint) Recv() (Message, bool) { return e.inner.Recv() }
func (e *faultEndpoint) Close() error          { return e.inner.Close() }

func (e *faultEndpoint) Send(to string, m Message) error {
	f := e.net
	if !f.plan.Enabled() || f.closed.Load() {
		return e.inner.Send(to, m)
	}

	key := linkKey{from: e.inner.Name(), to: to}
	now := time.Now()

	f.mu.Lock()
	f.stats.Sent++
	link := f.links[key]
	if link == nil {
		link = &linkState{}
		f.links[key] = link
	}

	// Active one-way partition: the link eats the message.
	if now.Before(link.partedUntil) {
		f.stats.PartDrops++
		f.mu.Unlock()
		return nil
	}
	if f.plan.PartitionProb > 0 && f.rng.Float64() < f.plan.PartitionProb {
		link.partedUntil = now.Add(f.plan.PartitionWindow)
		f.stats.Partitions++
		f.stats.PartDrops++
		f.mu.Unlock()
		return nil
	}

	if f.plan.DropProb > 0 && f.rng.Float64() < f.plan.DropProb {
		f.stats.Dropped++
		f.mu.Unlock()
		return nil
	}

	dup := f.plan.DupProb > 0 && f.rng.Float64() < f.plan.DupProb
	if dup {
		f.stats.Duplicated++
	}

	// Reorder: release any previously held message *after* this one, and
	// possibly hold this one for the next. At most one message per link
	// is ever held, and a flush timer bounds the hold so a held message
	// on a quiet link still arrives.
	var release *Message
	if link.held != nil {
		release = link.held
		link.held = nil
	}
	hold := f.plan.ReorderProb > 0 && f.rng.Float64() < f.plan.ReorderProb
	if hold {
		held := m
		link.held = &held
		f.stats.Reordered++
	}

	delay := time.Duration(0)
	if !hold && f.plan.DelayProb > 0 && f.rng.Float64() < f.plan.DelayProb {
		jitter := 0.5 + f.rng.Float64() // 0.5x .. 1.5x
		delay = time.Duration(float64(f.plan.Delay) * jitter)
		f.stats.Delayed++
	}
	f.mu.Unlock()

	var err error
	if !hold {
		if delay > 0 {
			f.later(delay, e.inner, to, m)
		} else {
			err = e.inner.Send(to, m)
		}
		if dup {
			f.later(f.plan.Delay/4, e.inner, to, m)
		}
	} else {
		// The held message must not be stranded if the link goes quiet.
		f.flushAfter(4*f.plan.Delay, e.inner, key)
		if dup {
			// Duplicate of a held message goes out now: dup + reorder in one.
			err = e.inner.Send(to, m)
		}
	}
	if release != nil {
		if serr := e.inner.Send(to, *release); err == nil {
			err = serr
		}
	}
	return err
}

// later delivers m to `to` after d on a background goroutine.
func (f *FaultNetwork) later(d time.Duration, ep Endpoint, to string, m Message) {
	f.background(d, func() { _ = ep.Send(to, m) })
}

// flushAfter releases the link's held message after d if no later Send
// has released it already.
func (f *FaultNetwork) flushAfter(d time.Duration, ep Endpoint, key linkKey) {
	f.background(d, func() {
		f.mu.Lock()
		link := f.links[key]
		var m *Message
		if link != nil && link.held != nil {
			m = link.held
			link.held = nil
		}
		f.mu.Unlock()
		if m != nil {
			_ = ep.Send(key.to, *m)
		}
	})
}
