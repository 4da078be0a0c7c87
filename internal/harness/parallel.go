package harness

import (
	"fmt"
	"sort"
	"sync"
)

// mapOrdered computes out[i] = f(i) for i in [0, n) using up to
// s.cfg.Workers goroutines and returns the results in index order — the
// deterministic merge every experiment relies on: work is scheduled
// concurrently, but tables and figures are always assembled in fixed
// benchmark order.
//
// With Workers <= 1 the indices run strictly serially in order and the
// first error aborts immediately, matching the pre-parallel harness
// exactly. In parallel mode min(Workers, n) goroutines drain one queue.
// Rows go out heaviest first by weight(i), ties in index order, so the
// run's tail is light rows (which lowers the suite's peak memory); a nil
// weight keeps index order. All scheduled work completes and the
// lowest-index error is returned, so the reported failure does not
// depend on goroutine timing. A panic in f becomes that row's error in
// both modes.
func mapOrdered[T any](s *Suite, n int, weight func(int) uint64, f func(int) (T, error)) ([]T, error) {
	out := make([]T, n)
	if n == 0 {
		return out, nil
	}
	workers := min(s.cfg.Workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			v, err := callRow(f, i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}

	errs := make([]error, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
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
