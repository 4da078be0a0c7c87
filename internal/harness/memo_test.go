package harness

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestMemoSharesOneComputation checks that concurrent requests for one
// key run its computation once and all see its value, and that cached
// neither starts nor waits on a computation.
func TestMemoSharesOneComputation(t *testing.T) {
	var c memo[int]
	if _, ok := c.cached("k"); ok {
		t.Fatal("cached reports a value before any request")
	}
	release := make(chan struct{})
	var calls atomic.Int32
	var wg sync.WaitGroup
	got := make([]int, 8)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], _ = c.get("k", func() (int, error) {
				calls.Add(1)
				<-release
				return 42, nil
			})
		}()
	}
	for calls.Load() == 0 {
	}
	if _, ok := c.cached("k"); ok {
		t.Fatal("cached reports a value while it is being computed")
	}
	close(release)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("computed %d times, want 1", n)
	}
	for i, v := range got {
		if v != 42 {
			t.Fatalf("request %d got %d, want 42", i, v)
		}
	}
	if v, ok := c.cached("k"); !ok || v != 42 {
		t.Fatalf("cached = %d, %v after the computation, want 42, true", v, ok)
	}
}

// TestMemoRetriesFailures checks that a failed computation is not
// cached: the next request computes again.
func TestMemoRetriesFailures(t *testing.T) {
	var c memo[int]
	fail := errors.New("boom")
	if _, err := c.get("k", func() (int, error) { return 0, fail }); err != fail {
		t.Fatalf("err = %v, want %v", err, fail)
	}
	if _, ok := c.cached("k"); ok {
		t.Fatal("a failed computation is cached")
	}
	v, err := c.get("k", func() (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("retry = %d, %v, want 7, nil", v, err)
	}
}

// TestMemoPanicReleasesWaiters checks that a panicking computation
// releases the entry its waiters block on, with an error, and is not
// cached: a later request computes again.
func TestMemoPanicReleasesWaiters(t *testing.T) {
	var c memo[int]
	started, release, returned := make(chan struct{}), make(chan struct{}), make(chan any)
	go func() {
		defer func() { returned <- recover() }()
		_, _ = c.get("k", func() (int, error) {
			close(started)
			<-release
			panic("boom")
		})
	}()
	<-started
	c.mu.Lock()
	e := c.m["k"] // what a concurrent request would wait on
	c.mu.Unlock()
	close(release)
	if p := <-returned; p != "boom" {
		t.Fatalf("panic %v did not reach the caller", p)
	}
	select {
	case <-e.done:
	default:
		t.Fatal("waiters stay blocked after a panicking computation")
	}
	if e.err == nil {
		t.Fatal("waiters of a panicking computation get no error")
	}
	v, err := c.get("k", func() (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("retry after a panic = %d, %v, want 7, nil", v, err)
	}
}
