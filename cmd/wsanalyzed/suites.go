package main

import (
	"sync"

	"repro/internal/harness"
	"repro/internal/obs"
)

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
// It holds every suite a running job uses plus one idle suite, the
// one most recently released. A suite holds the profiles and graph
// runs of every benchmark its jobs touched, so the single idle slot
// bounds what the server retains between jobs; a suite some job is
// using is never dropped.
type suiteCache struct {
	metrics *obs.Metrics // every suite reports into the server's registry
	created *obs.Counter
	reused  *obs.Counter

	mu      sync.Mutex
	entries map[suiteKey]*suiteEntry
	idle    *suiteEntry // the entry no job uses, if any
}

type suiteEntry struct {
	key   suiteKey
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
		if e == c.idle {
			c.idle = nil
		}
	} else {
		c.created.Inc()
		cfg.Metrics = c.metrics
		e = &suiteEntry{key: k, suite: harness.NewSuite(cfg)}
		c.entries[k] = e
	}
	e.users++
	return e.suite, func() { c.release(k) }
}

// release ends one job's use of k's suite. A suite no job uses takes
// the idle slot, dropping the suite that held it.
func (c *suiteCache) release(k suiteKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[k]
	if e.users--; e.users > 0 {
		return
	}
	if c.idle != nil {
		delete(c.entries, c.idle.key)
	}
	c.idle = e
}
