package workload

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/rng"
)

// Register conventions of generated code, chosen to keep leaf-function
// scratch registers disjoint from scene-loop state.
const (
	regScratchA = isa.Reg(1)  // leaf scratch
	regScratchB = isa.Reg(2)  // leaf scratch
	regRotCount = isa.Reg(16) // scene rotation counter
)

// branchKind is a branch site behaviour.
type branchKind uint8

const (
	kindBiasedTaken branchKind = iota
	kindBiasedNotTaken
	kindPeriodic
	kindRandom
)

// branchSite is one generated conditional branch's parameters.
type branchSite struct {
	kind branchKind
	// period is the loop period for kindPeriodic (taken period-1 of
	// every period executions).
	period int32
	// prob is the taken probability for kindRandom, as a 20-bit
	// threshold.
	prob int32
}

// structSeed derives the structure seed from the benchmark name; the
// program's code (branch kinds, scene membership) is a property of the
// benchmark, independent of input set.
func structSeed(name string) uint64 {
	// FNV-1a.
	h := uint64(1469598103934665603)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// Build generates the benchmark program for the given input set and
// scale factor (1.0 = the spec's default dynamic size). The input set
// determines the scene schedule; the code itself is input-independent,
// as a real binary's would be.
func (s Spec) Build(input InputSet, scale float64) (*program.Program, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if err := checkScale(scale); err != nil {
		return nil, err
	}
	structRng := rng.New(structSeed(s.Name))
	scheduleRng := rng.New(structSeed(s.Name) ^ (input.Seed * 0x9e3779b97f4a7c15))

	sites := s.drawSites(structRng)
	scenes := s.drawScenes(structRng)
	schedule := s.drawSchedule(scheduleRng, scale)

	b := program.NewBuilder(fmt.Sprintf("%s.%s", s.Name, input.Name))
	b.ReserveMem(s.Functions*s.BranchesPerFunc + 4096)

	funcLabels := make([]program.Label, s.Functions)
	for f := range funcLabels {
		funcLabels[f] = b.NewLabel()
	}
	sceneLabels := make([]program.Label, s.Scenes)
	for k := range sceneLabels {
		sceneLabels[k] = b.NewLabel()
	}

	// Main: visit scenes per the schedule, then halt.
	for _, k := range schedule {
		b.Call(sceneLabels[k])
	}
	b.Halt()

	// Scene bodies: save ra, rotate over member functions, restore.
	for k, members := range scenes {
		b.Bind(sceneLabels[k])
		b.AddI(isa.RSP, isa.RSP, -1)
		b.Store(isa.RRA, isa.RSP, 0)
		b.LoadImm(regRotCount, int32(s.Rotations))
		top := b.Here()
		for _, f := range members {
			b.Call(funcLabels[f])
		}
		b.AddI(regRotCount, regRotCount, -1)
		// The rotation-loop branch: taken Rotations-1 of Rotations
		// times, a classic loop-closing branch.
		b.Bne(regRotCount, isa.RZero, top)
		b.Load(isa.RRA, isa.RSP, 0)
		b.AddI(isa.RSP, isa.RSP, 1)
		b.Ret()
	}

	// Leaf bodies: the branch sites.
	for f := 0; f < s.Functions; f++ {
		b.Bind(funcLabels[f])
		for j := 0; j < s.BranchesPerFunc; j++ {
			s.emitSite(b, structRng, sites[f*s.BranchesPerFunc+j], int32(f*s.BranchesPerFunc+j))
		}
		b.Ret()
	}

	return b.Build()
}

// drawSites assigns every leaf branch site a behaviour per the bias mix.
func (s Spec) drawSites(r *rng.Xoshiro256) []branchSite {
	n := s.Functions * s.BranchesPerFunc
	sites := make([]branchSite, n)
	for i := range sites {
		x := r.Float64()
		switch {
		case x < s.Mix.BiasedTaken:
			sites[i] = branchSite{kind: kindBiasedTaken}
		case x < s.Mix.BiasedTaken+s.Mix.BiasedNotTaken:
			sites[i] = branchSite{kind: kindBiasedNotTaken}
		case x < s.Mix.BiasedTaken+s.Mix.BiasedNotTaken+s.Mix.Periodic:
			// Mostly short, local-history-predictable periods; a tail
			// of longer loop-exit style periods.
			var m int
			if r.Float64() < 0.8 {
				m = 2 + r.Intn(9) // 2..10
			} else {
				m = 16 + r.Intn(33) // 16..48
			}
			sites[i] = branchSite{kind: kindPeriodic, period: int32(m)}
		default:
			// Taken probability in [0.45, 0.90): genuinely hard.
			p := 0.45 + 0.45*r.Float64()
			sites[i] = branchSite{kind: kindRandom, prob: int32(p * (1 << 20))}
		}
	}
	return sites
}

// drawScenes draws scene membership (function index lists).
func (s Spec) drawScenes(r *rng.Xoshiro256) [][]int {
	scenes := make([][]int, s.Scenes)
	switch s.Mode {
	case Windowed:
		span := s.Functions - s.FuncsPerScene
		for k := range scenes {
			start := 0
			if s.Scenes > 1 {
				start = k * span / (s.Scenes - 1)
			}
			members := make([]int, s.FuncsPerScene)
			for i := range members {
				members[i] = start + i
			}
			scenes[k] = members
		}
	case Clustered:
		for k := range scenes {
			perm := r.Perm(s.Functions)
			members := append([]int(nil), perm[:s.FuncsPerScene]...)
			scenes[k] = members
		}
	}
	return scenes
}

// drawSchedule draws the main routine's scene visit sequence: a Zipf
// popularity distribution over a permuted scene ranking.
func (s Spec) drawSchedule(r *rng.Xoshiro256, scale float64) []int {
	visits := scaledVisits(s.Visits, scale)
	perm := r.Perm(s.Scenes)
	zipf := rng.NewZipf(r, s.Scenes, s.ZipfS)
	schedule := make([]int, visits)
	for i := range schedule {
		schedule[i] = perm[zipf.Next()]
	}
	return schedule
}

// emitSite emits the code of one branch site. addr is the site's
// counter word in data memory.
func (s Spec) emitSite(b *program.Builder, r *rng.Xoshiro256, site branchSite, addr int32) {
	skip := b.NewLabel()
	switch site.kind {
	case kindBiasedTaken:
		// Taken unless a 10-bit draw is zero (p ≈ 0.999).
		b.Rand(regScratchA)
		b.ShrI(regScratchA, regScratchA, 54)
		b.Bne(regScratchA, isa.RZero, skip)
		b.Nop() // rare not-taken path
	case kindBiasedNotTaken:
		// Taken only when a 10-bit draw is zero (p ≈ 0.001).
		b.Rand(regScratchA)
		b.ShrI(regScratchA, regScratchA, 54)
		b.Beq(regScratchA, isa.RZero, skip)
		b.Nop() // common not-taken path
	case kindPeriodic:
		// counter = mem[addr]; taken while ++counter < period, reset on
		// the fall-through: the T^(m-1) N loop pattern.
		b.Load(regScratchA, isa.RZero, addr)
		b.AddI(regScratchA, regScratchA, 1)
		b.SltI(regScratchB, regScratchA, site.period)
		b.Store(regScratchA, isa.RZero, addr)
		b.Bne(regScratchB, isa.RZero, skip)
		b.Store(isa.RZero, isa.RZero, addr) // period boundary: reset
	case kindRandom:
		// Taken with probability prob/2^20 on a fresh 20-bit draw.
		b.Rand(regScratchA)
		b.ShrI(regScratchA, regScratchA, 44)
		b.SltI(regScratchB, regScratchA, site.prob)
		b.Bne(regScratchB, isa.RZero, skip)
		b.Nop()
	}
	b.Bind(skip)
	// Variable padding: spaces branch PCs irregularly so the PC-modulo
	// baseline sees realistic aliasing patterns, and pads the
	// instructions-per-branch ratio toward real code.
	b.Nops(1 + r.Intn(3))
}
