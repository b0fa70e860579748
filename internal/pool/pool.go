// Package pool is the bounded worker pool shared by the measurement
// harness (internal/measure), the experiment engine (internal/experiments),
// the optimization service (internal/service) and the VM's event stage
// (internal/vm, which borrows one helper per run through Go). It exists
// to make fan-out deterministic by construction: work items are
// identified by index, results land in caller-provided slots indexed the
// same way, and every aggregate is computed from those slots in index
// order after the pool drains. The number of goroutines therefore changes wall-clock time
// only — never results, and never which error is reported.
//
// The pool, not its callers, picks the width. The process holds one
// budget of GOMAXPROCS−1 helper goroutines; every Map works through its
// indices on the calling goroutine and borrows helpers only while the
// budget has room. A Map nested inside another Map's fn thus runs inline
// once the outer level has taken the budget, so nested fan-outs never
// multiply past GOMAXPROCS running tasks per calling goroutine, and since
// the caller never waits for a helper to start, nesting cannot deadlock.
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"

	"halo/internal/obs"
)

// helpers counts the helper goroutines currently borrowed from the
// process-wide budget by running Map calls. It is package state because
// the budget must be shared by every Map, nested or concurrent, for the
// bound to hold.
var helpers atomic.Int64

// Pool metrics, recorded per Map call and per goroutine lifetime — never
// per task — in the process Default registry.
var (
	mMaps = obs.Default.Counter("halo_pool_maps_total",
		"pool.Map fan-outs executed (inline runs included)")
	mTasks = obs.Default.Counter("halo_pool_tasks_total",
		"work items dispatched through pool.Map")
	mBusy = obs.Default.Gauge("halo_pool_workers_busy",
		"goroutines currently running pool.Map work, callers included")
)

// Map runs fn(0) … fn(n-1) and returns the lowest-index error (nil if
// every call succeeded). Every index runs regardless of other indices
// failing, which is what makes the returned error — like the results the
// calls write — independent of scheduling. The calling goroutine runs
// indices itself, joined by as many helpers as the process-wide budget of
// GOMAXPROCS−1 (read at each call) has free; workers > 0 further caps this
// call at that many goroutines, caller included.
func Map(n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	procs := runtime.GOMAXPROCS(0)
	width := min(procs, n)
	if workers > 0 {
		width = min(width, workers)
	}
	if obs.Enabled() {
		mMaps.Inc()
		mTasks.Add(uint64(n))
	}
	errs := make([]error, n)
	var next atomic.Int64
	work := func() {
		mBusy.Add(1)
		defer mBusy.Add(-1)
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			errs[i] = fn(i)
		}
	}
	var wg sync.WaitGroup
	for h := 1; h < width && borrow(procs-1); h++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer helpers.Add(-1) // back in the budget before the caller resumes
			work()
		}()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Go runs fn on one helper goroutine borrowed from the process-wide
// budget and returns a channel that is closed once fn has returned and the
// helper is back in the budget. When the budget is spent it runs nothing
// and reports false, leaving the caller to do the work inline, so callers
// that use Go never push the process past GOMAXPROCS running tasks either.
// fn must not panic: a caller that needs a panic back recovers it in fn.
func Go(fn func()) (done <-chan struct{}, ok bool) {
	if !borrow(runtime.GOMAXPROCS(0) - 1) {
		return nil, false
	}
	ch := make(chan struct{})
	go func() {
		defer close(ch)
		defer helpers.Add(-1) // back in the budget before done closes
		fn()
	}()
	return ch, true
}

// borrow takes one helper from the process-wide budget of GOMAXPROCS−1,
// reporting false when the budget is spent.
func borrow(budget int) bool {
	for {
		b := helpers.Load()
		if b >= int64(budget) {
			return false
		}
		if helpers.CompareAndSwap(b, b+1) {
			return true
		}
	}
}
