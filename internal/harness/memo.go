package harness

import (
	"fmt"
	"sync"
)

// memo is a singleflight cache: concurrent requests for one key share a
// single computation, and a failed or panicking computation is not
// cached, so a later request retries. The zero value is ready to use.
type memo[V any] struct {
	mu sync.Mutex
	m  map[string]*memoEntry[V]
}

// memoEntry is one slot; done closes when its computation finishes.
type memoEntry[V any] struct {
	done chan struct{}
	v    V
	err  error
}

// get returns key's value, computing it on the first request.
func (c *memo[V]) get(key string, compute func() (V, error)) (V, error) {
	c.mu.Lock()
	if e, ok := c.m[key]; ok {
		c.mu.Unlock()
		<-e.done
		return e.v, e.err
	}
	if c.m == nil {
		c.m = make(map[string]*memoEntry[V])
	}
	e := &memoEntry[V]{done: make(chan struct{})}
	c.m[key] = e
	c.mu.Unlock()

	finished := false
	defer func() {
		if !finished {
			// compute panicked: its waiters get an error, and the panic
			// goes on to the caller.
			e.err = fmt.Errorf("harness: computing %s panicked", key)
		}
		if e.err != nil {
			c.mu.Lock()
			delete(c.m, key)
			c.mu.Unlock()
		}
		close(e.done)
	}()
	e.v, e.err = compute()
	finished = true
	return e.v, e.err
}

// cached returns key's value only if it is already computed, without
// starting or waiting on a computation.
func (c *memo[V]) cached(key string) (v V, ok bool) {
	c.mu.Lock()
	e := c.m[key]
	c.mu.Unlock()
	if e == nil {
		return v, false
	}
	select {
	case <-e.done:
		return e.v, e.err == nil
	default:
		return v, false
	}
}
