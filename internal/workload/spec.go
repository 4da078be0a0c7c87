// Package workload provides the synthetic benchmark suite that stands in
// for the paper's SPECint95 and UNIX applications (Table 1).
//
// Each benchmark is a generated program for the simulated machine whose
// control-flow *shape* is tuned to the paper's measurements: the static
// conditional branch population, the working-set geometry (how many
// branches execute together, and how those groups overlap and succeed
// one another over time), and the bias mix (how many branches are >99%
// or <1% taken). Absolute dynamic branch counts are scaled down from the
// paper's 7.7M-117M for laptop runtime; a scale factor restores larger
// runs.
//
// Structure of a generated program:
//
//   - F leaf functions, each containing B conditional branch sites of
//     varied behaviour (highly biased, periodic "loop" patterns, or
//     data-dependent random) driven by per-branch memory counters and a
//     seeded pseudo-random input stream.
//   - A set of scenes; each scene is a group of leaf functions called
//     together in rotation for a number of iterations. A scene's
//     branches interleave tightly and form a branch working set.
//     Windowed scenes (overlapping slices of the function list) model
//     code locality; clustered scenes (random groups) model call graphs
//     with long-range coupling.
//   - A main routine that visits scenes according to a Zipf-distributed
//     schedule derived from the input set, so some scenes are hot and
//     some cold, as in real profiles.
package workload

import (
	"fmt"
	"math"
	"sort"
)

// SceneMode selects how scene membership is drawn.
type SceneMode int

const (
	// Windowed scenes are overlapping contiguous slices of the function
	// list, giving the chained, overlapping working sets large programs
	// show.
	Windowed SceneMode = iota
	// Clustered scenes are random function groups, giving small
	// programs' scattered conflict structure.
	Clustered
)

func (m SceneMode) String() string {
	if m == Clustered {
		return "clustered"
	}
	return "windowed"
}

// BiasMix sets the fraction of branch sites of each behaviour; the
// fractions must sum to (about) 1.
type BiasMix struct {
	// BiasedTaken branches are taken ~99.9% of the time.
	BiasedTaken float64
	// BiasedNotTaken branches are taken ~0.1% of the time.
	BiasedNotTaken float64
	// Periodic branches follow a T^(m-1) N loop pattern with small m —
	// highly predictable with private local history, easily wrecked by
	// BHT interference.
	Periodic float64
	// Random branches are data-dependent with a moderate taken
	// probability; no predictor does well on them.
	Random float64
}

// Spec parameterizes one synthetic benchmark.
type Spec struct {
	// Name is the benchmark identity (matches the paper's Table 1).
	Name string
	// Description says which real program the spec models.
	Description string

	// Functions and BranchesPerFunc set the static branch population:
	// roughly Functions*BranchesPerFunc conditional branch sites (plus
	// one loop branch per scene).
	Functions       int
	BranchesPerFunc int

	// FuncsPerScene functions execute together per scene; a scene's
	// working set is FuncsPerScene*BranchesPerFunc branches.
	FuncsPerScene int
	// Scenes is the number of distinct scenes.
	Scenes int
	// Mode selects windowed or clustered scene membership.
	Mode SceneMode

	// Visits is the schedule length (scene calls from main) at scale
	// 1.0; Rotations is the number of function-rotation iterations per
	// scene visit.
	Visits    int
	Rotations int
	// ZipfS is the exponent of the scene-popularity distribution.
	ZipfS float64

	// Mix is the branch behaviour population.
	Mix BiasMix

	// AnalyzeCoverage is the dynamic-branch coverage target of the
	// frequency filter, reproducing Table 1's final column (the paper
	// keeps 93.74%-99.99%).
	AnalyzeCoverage float64
}

// InputSet selects a program input: it reseeds both the scene schedule
// (which parts of the program are hot) and the data stream feeding
// data-dependent branches. The paper's perl_a/perl_b and ss_a/ss_b rows
// are two InputSets of one benchmark.
type InputSet struct {
	Name string
	Seed uint64
}

// Common input sets.
var (
	InputRef = InputSet{Name: "ref", Seed: 1}
	InputA   = InputSet{Name: "a", Seed: 11}
	InputB   = InputSet{Name: "b", Seed: 22}
)

// InputByName returns the common input set called name; the empty name
// is InputRef, as in RunConfig.
func InputByName(name string) (InputSet, error) {
	switch name {
	case "", InputRef.Name:
		return InputRef, nil
	case InputA.Name:
		return InputA, nil
	case InputB.Name:
		return InputB, nil
	}
	return InputSet{}, fmt.Errorf("unknown input set %q (want ref, a, or b)", name)
}

// specs is the benchmark registry, tuned so that the suite's Table 1/2
// shape (static branch populations, working-set sizes and counts,
// relative benchmark ordering) follows the paper. gs and tex appear in
// Tables 3/4 only; they are modeled like the others.
var specs = []Spec{
	{
		Name: "compress", Description: "SPECint95 129.compress (compress_small.in)",
		Functions: 30, BranchesPerFunc: 13, FuncsPerScene: 3, Scenes: 10, Mode: Clustered,
		Visits: 320, Rotations: 50, ZipfS: 0.7,
		Mix:             BiasMix{BiasedTaken: 0.15, BiasedNotTaken: 0.10, Periodic: 0.55, Random: 0.20},
		AnalyzeCoverage: 0.9999,
	},
	{
		Name: "gcc", Description: "SPECint95 126.gcc (jump.i)",
		Functions: 720, BranchesPerFunc: 22, FuncsPerScene: 16, Scenes: 130, Mode: Windowed,
		Visits: 170, Rotations: 25, ZipfS: 0.55,
		Mix:             BiasMix{BiasedTaken: 0.33, BiasedNotTaken: 0.22, Periodic: 0.34, Random: 0.11},
		AnalyzeCoverage: 0.9374,
	},
	{
		Name: "ijpeg", Description: "SPECint95 132.ijpeg (vigo.ppm)",
		Functions: 36, BranchesPerFunc: 13, FuncsPerScene: 2, Scenes: 10, Mode: Clustered,
		Visits: 300, Rotations: 65, ZipfS: 0.7,
		Mix:             BiasMix{BiasedTaken: 0.38, BiasedNotTaken: 0.22, Periodic: 0.30, Random: 0.10},
		AnalyzeCoverage: 0.9999,
	},
	{
		Name: "li", Description: "SPECint95 130.li (li_ref.out)",
		Functions: 72, BranchesPerFunc: 15, FuncsPerScene: 12, Scenes: 36, Mode: Windowed,
		Visits: 150, Rotations: 32, ZipfS: 0.6,
		Mix:             BiasMix{BiasedTaken: 0.45, BiasedNotTaken: 0.28, Periodic: 0.20, Random: 0.07},
		AnalyzeCoverage: 0.9999,
	},
	{
		Name: "m88ksim", Description: "SPECint95 124.m88ksim (ctl.big)",
		Functions: 100, BranchesPerFunc: 12, FuncsPerScene: 12, Scenes: 24, Mode: Windowed,
		Visits: 170, Rotations: 34, ZipfS: 0.6,
		Mix:             BiasMix{BiasedTaken: 0.44, BiasedNotTaken: 0.28, Periodic: 0.21, Random: 0.07},
		AnalyzeCoverage: 0.9999,
	},
	{
		Name: "perl", Description: "SPECint95 134.perl (scrabbl.in)",
		Functions: 200, BranchesPerFunc: 10, FuncsPerScene: 5, Scenes: 22, Mode: Clustered,
		Visits: 300, Rotations: 45, ZipfS: 0.65,
		Mix:             BiasMix{BiasedTaken: 0.23, BiasedNotTaken: 0.15, Periodic: 0.46, Random: 0.16},
		AnalyzeCoverage: 0.9984,
	},
	{
		Name: "chess", Description: "UNIX app: GNU chess (sim.in)",
		Functions: 340, BranchesPerFunc: 16, FuncsPerScene: 15, Scenes: 90, Mode: Windowed,
		Visits: 160, Rotations: 30, ZipfS: 0.55,
		Mix:             BiasMix{BiasedTaken: 0.23, BiasedNotTaken: 0.15, Periodic: 0.46, Random: 0.16},
		AnalyzeCoverage: 0.9991,
	},
	{
		Name: "gs", Description: "UNIX app: ghostscript (sigmetrics94.ps)",
		Functions: 400, BranchesPerFunc: 15, FuncsPerScene: 12, Scenes: 60, Mode: Windowed,
		Visits: 170, Rotations: 32, ZipfS: 0.6,
		Mix:             BiasMix{BiasedTaken: 0.33, BiasedNotTaken: 0.22, Periodic: 0.34, Random: 0.11},
		AnalyzeCoverage: 0.9985,
	},
	{
		Name: "pgp", Description: "UNIX app: PGP (IJPP97.ps)",
		Functions: 64, BranchesPerFunc: 11, FuncsPerScene: 4, Scenes: 16, Mode: Clustered,
		Visits: 300, Rotations: 50, ZipfS: 0.7,
		Mix:             BiasMix{BiasedTaken: 0.18, BiasedNotTaken: 0.12, Periodic: 0.52, Random: 0.18},
		AnalyzeCoverage: 0.9996,
	},
	{
		Name: "plot", Description: "UNIX app: gnuplot (surface2.dem)",
		Functions: 150, BranchesPerFunc: 12, FuncsPerScene: 12, Scenes: 44, Mode: Windowed,
		Visits: 160, Rotations: 36, ZipfS: 0.6,
		Mix:             BiasMix{BiasedTaken: 0.44, BiasedNotTaken: 0.28, Periodic: 0.21, Random: 0.07},
		AnalyzeCoverage: 0.9996,
	},
	{
		Name: "python", Description: "UNIX app: python (yarn.tests.py)",
		Functions: 460, BranchesPerFunc: 20, FuncsPerScene: 17, Scenes: 110, Mode: Windowed,
		Visits: 160, Rotations: 25, ZipfS: 0.55,
		Mix:             BiasMix{BiasedTaken: 0.48, BiasedNotTaken: 0.30, Periodic: 0.16, Random: 0.06},
		AnalyzeCoverage: 0.9994,
	},
	{
		Name: "ss", Description: "UNIX app: SimpleScalar itself (test-fmath)",
		Functions: 380, BranchesPerFunc: 18, FuncsPerScene: 16, Scenes: 85, Mode: Windowed,
		Visits: 150, Rotations: 28, ZipfS: 0.55,
		Mix:             BiasMix{BiasedTaken: 0.27, BiasedNotTaken: 0.18, Periodic: 0.41, Random: 0.14},
		AnalyzeCoverage: 0.9989,
	},
	{
		Name: "tex", Description: "UNIX app: TeX (output-PACT96.tex)",
		Functions: 200, BranchesPerFunc: 14, FuncsPerScene: 10, Scenes: 40, Mode: Windowed,
		Visits: 170, Rotations: 35, ZipfS: 0.6,
		Mix:             BiasMix{BiasedTaken: 0.26, BiasedNotTaken: 0.17, Periodic: 0.43, Random: 0.14},
		AnalyzeCoverage: 0.9990,
	},
}

// Specs returns the full benchmark suite in canonical order.
func Specs() []Spec {
	out := make([]Spec, len(specs))
	copy(out, specs)
	return out
}

// Names returns the benchmark names in canonical order.
func Names() []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}

// ByName returns the spec for name.
func ByName(name string) (Spec, error) {
	for _, s := range specs {
		if s.Name == name {
			return s, nil
		}
	}
	sorted := Names()
	sort.Strings(sorted)
	return Spec{}, fmt.Errorf("workload: unknown benchmark %q (have %v)", name, sorted)
}

// StaticBranches estimates the static conditional branch population of
// the generated program: the leaf branch sites plus one rotation-loop
// branch per scene.
func (s Spec) StaticBranches() int {
	return s.Functions*s.BranchesPerFunc + s.Scenes
}

// WorkingSetSize is the nominal working set: the branches of one scene.
func (s Spec) WorkingSetSize() int {
	return s.FuncsPerScene*s.BranchesPerFunc + 1
}

// DynamicBranches estimates the dynamic conditional branch count at the
// given scale factor.
func (s Spec) DynamicBranches(scale float64) uint64 {
	visits := scaledVisits(s.Visits, scale)
	perRotation := uint64(s.FuncsPerScene*s.BranchesPerFunc + 1)
	return uint64(visits) * uint64(s.Rotations) * perRotation
}

// Validate checks the spec's structural constraints.
func (s Spec) Validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("workload: spec without name")
	case s.Functions < 1 || s.BranchesPerFunc < 1:
		return fmt.Errorf("workload %s: needs functions and branches per function", s.Name)
	case s.FuncsPerScene < 1 || s.FuncsPerScene > s.Functions:
		return fmt.Errorf("workload %s: FuncsPerScene %d outside [1,%d]", s.Name, s.FuncsPerScene, s.Functions)
	case s.Scenes < 1:
		return fmt.Errorf("workload %s: needs at least one scene", s.Name)
	case s.Visits < 1 || s.Rotations < 1:
		return fmt.Errorf("workload %s: needs visits and rotations", s.Name)
	case s.ZipfS <= 0:
		return fmt.Errorf("workload %s: ZipfS must be positive", s.Name)
	}
	total := s.Mix.BiasedTaken + s.Mix.BiasedNotTaken + s.Mix.Periodic + s.Mix.Random
	if total < 0.99 || total > 1.01 {
		return fmt.Errorf("workload %s: bias mix sums to %.3f, want 1", s.Name, total)
	}
	if s.AnalyzeCoverage <= 0 || s.AnalyzeCoverage > 1 {
		return fmt.Errorf("workload %s: AnalyzeCoverage %.4f outside (0,1]", s.Name, s.AnalyzeCoverage)
	}
	return nil
}

// checkScale rejects a scale factor that names no size: negative, NaN
// or infinite. 0 is valid and means 1.0.
func checkScale(scale float64) error {
	if scale < 0 || math.IsNaN(scale) || math.IsInf(scale, 0) {
		return fmt.Errorf("workload: scale %v: want a finite factor >= 0 (0 means 1.0)", scale)
	}
	return nil
}

func scaledVisits(visits int, scale float64) int {
	if scale <= 0 {
		scale = 1
	}
	v := int(float64(visits) * scale)
	if v < 1 {
		v = 1
	}
	return v
}
