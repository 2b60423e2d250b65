package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// The reference box changes speed under identical code, for seconds or for
// minutes at a time, and mostly through its memory system: a register-only
// loop moves by 5 %, a walk over 8 MiB by 25 % (README.md, "Run protocol").
// The harness therefore times one fixed kernel beside every rep and every
// set-up — half of it in registers, half in cache misses on the quiet box —
// and reports every time at the reference pace: a time measured while the
// kernel took 1.2x its reference time is divided by 1.2.

const (
	paceALUSteps = 12_000_000
	paceMemSteps = 400_000
	paceMemWords = 1 << 20 // 8 MiB of uint64: past the L2, inside what the workloads' heaps span

	// paceRefUS is the kernel's time on the reference box in a calm minute.
	// It only fixes the scale: pace 1 is the box the declared sizes were
	// chosen on.
	paceRefUS = 50_000
)

// paceBuf is mapped outside the Go heap: 8 MiB of live heap would double
// the collector's target on the commit workloads and sit in heap_live_mb.
var paceBuf []uint64

func initPace() error {
	if paceBuf != nil {
		return nil
	}
	b, err := syscall.Mmap(-1, 0, 8*paceMemWords, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return fmt.Errorf("mapping the pace kernel's buffer: %w", err)
	}
	paceBuf = unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), paceMemWords)
	for i := range paceBuf {
		paceBuf[i] = uint64(i)
	}
	boxPace() // fault every page in and warm the code
	return nil
}

// boxPace runs the kernel once (about 50 ms) and returns its time over the
// reference time: above 1, the box is slower than the reference.
func boxPace() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < paceALUSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	for i := 0; i < paceMemSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (paceMemWords - 1)
		paceBuf[j] += x
		x += paceBuf[j] // the next address depends on this load
	}
	paceBuf[0] += x
	return float64(time.Since(t0).Nanoseconds()) / (paceRefUS * 1e3)
}
