package main

import (
	"runtime"
	"sort"
	"sync"
	"time"
)

// The hosts this benchmark runs on share their CPUs with other tenants,
// and their speed drifts by a third over minutes: unscaled medians of
// ten 25-second runs spread 6-26% across runs. A run therefore times a
// fixed calibration kernel, which uses no repository code, before and
// after every job (every service segment), and scales each job's times
// to a host on which that kernel takes calNominal, by the calibrations
// on either side of it. A change to the repository moves the job times
// and not the kernel's, so it shows in full; a slower or busier host
// moves both and cancels out. The unscaled times stay in the run
// records.
//
// The kernel does the kinds of work the pipeline does: hash-map updates
// and iteration (conflict graphs), switch dispatch (the VM), scattered
// counter increments over a table far larger than the caches (pair
// counting), and sorting (working sets and reports).

// calNominal is the calibration kernel's time on the reference host,
// about its time on an idle 2-CPU sandbox.
const calNominal = 175 * time.Millisecond

type calRecord struct {
	key  uint64
	rest [2]uint64
}

// calState is one CPU's working set, built once so that calibrations
// time the work and not its set-up.
type calState struct {
	keys   []int32
	prog   []byte
	idx    []uint32
	table  []uint32
	seed   []calRecord
	recs   []calRecord
	result uint64 // keeps the work observable
}

var (
	calOnce    sync.Once
	calWorkers []*calState
)

func calSetup() {
	for w := 0; w < runtime.NumCPU(); w++ {
		x := uint64(w + 1)
		next := func() uint64 { // xorshift64
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			return x
		}
		s := &calState{
			keys:  make([]int32, 1<<17),
			prog:  make([]byte, 1<<21),
			idx:   make([]uint32, 1<<21),
			table: make([]uint32, 1<<23),
			seed:  make([]calRecord, 1<<16),
			recs:  make([]calRecord, 1<<16),
		}
		for i := range s.keys {
			s.keys[i] = int32(next() % (1 << 20))
		}
		for i := range s.prog {
			s.prog[i] = byte(next())
		}
		for i := range s.idx {
			s.idx[i] = uint32(next() % uint64(len(s.table)))
		}
		for i := range s.seed {
			s.seed[i].key = next()
		}
		s.run() // fault in the pages and warm the code paths
		calWorkers = append(calWorkers, s)
	}
}

// calibrate runs the kernel once on every CPU at the same time and
// returns the wall time until all are done.
func calibrate() time.Duration {
	calOnce.Do(calSetup)
	start := clock.Now()
	var wg sync.WaitGroup
	for _, s := range calWorkers {
		wg.Add(1)
		go func(s *calState) {
			defer wg.Done()
			s.run()
		}(s)
	}
	wg.Wait()
	return clock.Now().Sub(start)
}

func (s *calState) run() {
	var acc uint64
	for round := 0; round < 2; round++ {
		m := make(map[int32]uint64)
		for _, k := range s.keys {
			m[k] += uint64(k)
		}
		for k, v := range m {
			acc += uint64(k) ^ v
		}

		r0, r1, r2 := uint64(1), uint64(2), uint64(3)
		for _, op := range s.prog {
			switch op & 7 {
			case 0:
				r0 += r1
			case 1:
				r1 ^= r2 << 1
			case 2:
				r2 = r0*3 + 1
			case 3:
				if r0&1 == 0 {
					r1++
				}
			case 4:
				r0 = r0>>1 | r2
			case 5:
				r2 -= r1
			case 6:
				r1 = r1*5 ^ r0
			default:
				r0++
			}
		}
		acc += r0 + r1 + r2

		for _, i := range s.idx {
			s.table[i]++
		}

		copy(s.recs, s.seed)
		sort.Slice(s.recs, func(i, j int) bool { return s.recs[i].key < s.recs[j].key })
		acc += s.recs[len(s.recs)/2].key
	}
	s.result = acc
}

// hostScale is the factor that scales the times of a job to the
// reference host: the nominal calibration time over the mean of the
// calibrations (in seconds) taken just before and just after it.
func hostScale(before, after float64) float64 {
	return calNominal.Seconds() / ((before + after) / 2)
}
