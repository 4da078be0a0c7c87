package main

import (
	"slices"
	"sync"

	"repro/internal/harness"
	"repro/internal/obs"
)

// maxIdleSuites caps the suites the cache keeps while no job runs on
// them. Each holds the profiles and graph runs of every benchmark its
// jobs touched, so the cap bounds what the server retains between
// jobs; a suite some job is using is never dropped.
const maxIdleSuites = 2

// suiteKey is the part of a request that fixes a harness.Suite: the
// defaulted configuration fields a request can set. Jobs with equal
// keys render from the same artifacts, so they share one suite.
type suiteKey struct {
	scale        float64
	threshold    uint64
	cliqueBudget int
	check        bool
	progCheck    bool
}

func keyOf(cfg harness.Config) suiteKey {
	cfg = cfg.Defaults()
	return suiteKey{cfg.Scale, cfg.Threshold, cfg.CliqueBudget, cfg.Check, cfg.ProgCheck}
}

// suiteCache shares one harness.Suite per configuration across the
// server's jobs, so a repeated request reuses the VM passes and
// profiles of the jobs before it, and concurrent identical jobs
// share one computation through the suite's own singleflight memo.
// It holds every suite a running job uses plus at most maxIdleSuites
// idle ones, dropping the least recently released idle suite first.
type suiteCache struct {
	metrics *obs.Metrics // every suite reports into the server's registry
	created *obs.Counter
	reused  *obs.Counter

	mu      sync.Mutex
	entries map[suiteKey]*suiteEntry
	idle    []suiteKey // least recently released first
}

type suiteEntry struct {
	suite *harness.Suite
	users int // jobs holding the suite
}

func newSuiteCache(reg *obs.Registry, m *obs.Metrics) *suiteCache {
	return &suiteCache{
		metrics: m,
		created: reg.Counter("wsd_suites_created_total"),
		reused:  reg.Counter("wsd_suites_reused_total"),
		entries: make(map[suiteKey]*suiteEntry),
	}
}

// acquire returns the suite for cfg, creating it if the cache has
// none, and the function that releases it once the job is done.
func (c *suiteCache) acquire(cfg harness.Config) (*harness.Suite, func()) {
	k := keyOf(cfg)
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[k]
	if ok {
		c.reused.Inc()
		if e.users == 0 {
			i := slices.Index(c.idle, k)
			c.idle = slices.Delete(c.idle, i, i+1)
		}
	} else {
		c.created.Inc()
		cfg.Metrics = c.metrics
		e = &suiteEntry{suite: harness.NewSuite(cfg)}
		c.entries[k] = e
	}
	e.users++
	return e.suite, func() { c.release(k) }
}

// release ends one job's use of k's suite. A suite no job uses goes to
// the back of the idle list, and the front is dropped past the cap.
func (c *suiteCache) release(k suiteKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[k]
	if e.users--; e.users > 0 {
		return
	}
	c.idle = append(c.idle, k)
	if len(c.idle) > maxIdleSuites {
		delete(c.entries, c.idle[0])
		c.idle = c.idle[1:]
	}
}
