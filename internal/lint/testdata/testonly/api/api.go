// Package api declares exports with and without non-test callers.
package api

func Live() int     { return 1 } // called from package user
func TestOnly() int { return 2 } // called only from api_test.go
func Orphan()       {}           // referenced nowhere

//reprolint:allow testonly fixture: a reference the tests compare against
func Oracle() int { return 3 }

type Sink interface{ Put(int) }

func Drain(s Sink, x int) { s.Put(x) }

type Counter struct{ Sum int }

func (c *Counter) Put(x int) { c.Sum += x } // called only through Sink
func (c *Counter) Reset()    { c.Sum = 0 }  // called only from api_test.go

type Lattice[F any] interface{ Meet(a, b F) F }

func Fold[F any, L Lattice[F]](l L, a, b F) F { return l.Meet(a, b) }

type Max struct{}

func (Max) Meet(a, b int) int { return max(a, b) } // called only through Lattice
