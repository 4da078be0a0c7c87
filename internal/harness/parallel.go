package harness

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
)

// coreBudget is a pool of core tokens shared by the per-row workers of
// mapOrdered, the harness's one kind of parallelism: each row's profile
// and analysis run on its worker's goroutine. Tokens held equal the
// busy workers, so concurrent Suites (one per wsanalyzed job) share
// GOMAXPROCS cores instead of multiplying each other's parallelism.
type coreBudget struct {
	// capacity is the token count; 0 means runtime.GOMAXPROCS(0) at
	// each call.
	capacity int

	mu   sync.Mutex
	held int
}

// cores is the process-wide budget every Suite draws from.
var cores = &coreBudget{}

func (b *coreBudget) size() int {
	if b.capacity > 0 {
		return b.capacity
	}
	return runtime.GOMAXPROCS(0)
}

// take reserves min(want, idle tokens) tokens, but never fewer than
// floor, and returns the count reserved. A floor may push the held count
// past the capacity; the overdraft only makes later requests get less.
func (b *coreBudget) take(want, floor int) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := max(min(want, b.size()-b.held), floor)
	b.held += n
	return n
}

// give returns n tokens to the pool.
func (b *coreBudget) give(n int) {
	b.mu.Lock()
	b.held -= n
	b.mu.Unlock()
}

// mapOrdered computes out[i] = f(i) for i in [0, n) using up to
// s.cfg.Workers goroutines and returns the results in index order — the
// deterministic merge every experiment relies on: work is scheduled
// concurrently, but tables and figures are always assembled in fixed
// benchmark order.
//
// With Workers <= 1 the indices run strictly serially in order and the
// first error aborts immediately, matching the pre-parallel harness
// exactly; the caller holds one token meanwhile. In parallel mode each
// worker holds a token from s.cores until the queue is empty, so the
// worker count is capped by the idle tokens (at least 1, and an explicit
// Workers above the capacity is honoured). Rows go out heaviest first by
// weight(i), ties in index order, so the run's tail is light rows (which
// lowers the suite's peak memory); a nil weight keeps index order. All
// scheduled work completes and the lowest-index error is
// returned, so the reported failure does not depend on goroutine timing.
// A panic in f becomes that row's error in both modes.
func mapOrdered[T any](s *Suite, n int, weight func(int) uint64, f func(int) (T, error)) ([]T, error) {
	out := make([]T, n)
	if n == 0 {
		return out, nil
	}
	b, workers := s.cores, min(s.cfg.Workers, n)
	if workers <= 1 {
		b.take(1, 1)
		defer b.give(1)
		for i := 0; i < n; i++ {
			v, err := callRow(f, i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}

	floor := 1
	if s.cfg.Workers > b.size() {
		floor = workers
	}
	workers = b.take(workers, floor)
	errs := make([]error, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer b.give(1)
			for i := range idx {
				out[i], errs[i] = callRow(f, i)
			}
		}()
	}
	for _, i := range dispatchOrder(n, weight) {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// dispatchOrder returns [0, n) sorted by descending weight, ties in
// index order.
func dispatchOrder(n int, weight func(int) uint64) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	if weight != nil {
		w := make([]uint64, n)
		for i := range w {
			w[i] = weight(i)
		}
		sort.SliceStable(order, func(a, b int) bool { return w[order[a]] > w[order[b]] })
	}
	return order
}

// callRow runs f(i), turning a panic into the row's error.
func callRow[T any](f func(int) (T, error), i int) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("harness: row %d panicked: %v", i, r)
		}
	}()
	return f(i)
}
