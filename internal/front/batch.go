package front

import (
	"errors"
	"runtime"
	"sync"

	"compositetx/internal/model"
)

// errNilSystem is returned for nil entries in a CheckBatch input slice.
var errNilSystem = errors.New("front: nil system")

// BatchResult is the outcome of checking one system of a batch: exactly
// one of Verdict and Err is non-nil.
type BatchResult struct {
	Verdict *Verdict
	Err     error
}

// CheckBatch checks many systems concurrently on a worker pool and
// returns one result per system, in input order. parallelism is the
// number of workers; values < 1 select runtime.GOMAXPROCS(0). Nil systems
// and duplicate pointers to the same system are allowed: Check only reads
// its system, and all per-check state is private to the worker.
//
// CheckBatch is how the experiment drivers (internal/sim) and cmd/compcheck
// -parallel amortize checking across cores; single checks should call
// Check directly.
func CheckBatch(systems []*model.System, parallelism int, opts Options) []BatchResult {
	results := make([]BatchResult, len(systems))
	if len(systems) == 0 {
		return results
	}
	if parallelism < 1 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > len(systems) {
		parallelism = len(systems)
	}

	if parallelism == 1 {
		for i, sys := range systems {
			results[i] = checkOne(sys, opts)
		}
		return results
	}

	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(parallelism)
	for w := 0; w < parallelism; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				results[i] = checkOne(systems[i], opts)
			}
		}()
	}
	for i := range systems {
		next <- i
	}
	close(next)
	wg.Wait()
	return results
}

func checkOne(sys *model.System, opts Options) BatchResult {
	if sys == nil {
		return BatchResult{Err: errNilSystem}
	}
	v, err := Check(sys, opts)
	return BatchResult{Verdict: v, Err: err}
}
