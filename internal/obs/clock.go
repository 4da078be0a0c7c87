package obs

import (
	"sync"
	"time"
)

// Clock abstracts the wall clock so timing metrics are injectable: the
// pipeline never calls time.Now directly (reprolint's entropy pass
// enforces that), it asks the Clock it was handed. Production code uses
// SystemClock; tests inject a FakeClock so every timing field in a
// metrics dump is deterministic and golden-testable.
type Clock interface {
	Now() time.Time
}

type systemClock struct{}

func (systemClock) Now() time.Time {
	return time.Now() //reprolint:allow entropy the one sanctioned wall-clock read; all consumers inject Clock
}

// SystemClock returns the real wall clock. It is the only place in the
// repository (outside annotated progress output) that reads ambient
// time; everything timed routes through an injected Clock so tests can
// zero the timing fields.
func SystemClock() Clock { return systemClock{} }

// FakeClock is a deterministic Clock for tests: it starts at a fixed
// instant and advances by a fixed step on every Now call (step 0
// freezes it, which zeroes every duration derived from it).
type FakeClock struct {
	mu   sync.Mutex
	now  time.Time
	step time.Duration
}

// NewFakeClock returns a FakeClock starting at start, advancing by step
// per Now call.
func NewFakeClock(start time.Time, step time.Duration) *FakeClock { //reprolint:allow testonly golden-timing fixture
	return &FakeClock{now: start, step: step}
}

// Now returns the current fake instant and advances the clock by the
// configured step.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.now
	c.now = c.now.Add(c.step)
	return t
}

// Advance moves the clock forward by d without counting as a Now call.
func (c *FakeClock) Advance(d time.Duration) { //reprolint:allow testonly golden-timing fixture
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}
