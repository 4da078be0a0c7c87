// Package pipeline models the performance cost of branch mispredictions
// in a simple in-order front end, translating misprediction rates into
// the cycle-level quantities the paper's introduction motivates ("a wide
// issue and deeply pipelined processor demands a highly accurate branch
// prediction mechanism").
//
// The model is deliberately first-order: a machine that sustains one
// instruction per cycle when fetch is never redirected, plus a fixed
// redirect penalty per mispredicted conditional branch and a smaller
// penalty per taken branch (the misfetch bubble branch alignment targets
// — Calder & Grunwald, referenced in Section 2). It is enough to rank
// predictor configurations and to express accuracy differences in CPI
// and speedup terms.
package pipeline

import "fmt"

// Model holds the cost parameters.
type Model struct {
	// MispredictPenalty is the redirect penalty in cycles per
	// mispredicted conditional branch (front-end refill).
	MispredictPenalty uint64
	// TakenPenalty is the fetch-bubble cost of a correctly predicted
	// taken branch (0 for a machine with a BTB that hides it).
	TakenPenalty uint64
}

// Deep returns a deeply pipelined model of the kind the paper's
// introduction argues for: a 15-cycle redirect and a 1-cycle taken
// bubble.
func Deep() Model { return Model{MispredictPenalty: 15, TakenPenalty: 1} }

// Cost is the evaluated execution cost of one run under one predictor.
type Cost struct {
	Instructions uint64
	Branches     uint64
	Taken        uint64
	Mispredicts  uint64
	// Cycles is the modeled total cycle count.
	Cycles uint64
}

// CPI returns cycles per instruction.
func (c Cost) CPI() float64 {
	if c.Instructions == 0 {
		return 0
	}
	return float64(c.Cycles) / float64(c.Instructions)
}

// MPKI returns mispredictions per thousand instructions, the standard
// cross-benchmark accuracy metric.
func (c Cost) MPKI() float64 {
	if c.Instructions == 0 {
		return 0
	}
	return 1000 * float64(c.Mispredicts) / float64(c.Instructions)
}

// PenaltyFraction returns the fraction of all cycles spent on branch
// penalties.
func (c Cost) PenaltyFraction() float64 {
	if c.Cycles == 0 {
		return 0
	}
	return float64(c.Cycles-c.Instructions) / float64(c.Cycles)
}

func (c Cost) String() string {
	return fmt.Sprintf("CPI %.3f (MPKI %.2f, %.1f%% cycles in branch penalties)",
		c.CPI(), c.MPKI(), 100*c.PenaltyFraction())
}

// Evaluate computes the modeled cost of a run: instructions retired,
// conditional branches (of which taken), and mispredicted branches.
func (m Model) Evaluate(instructions, branches, taken, mispredicts uint64) Cost {
	if taken > branches {
		taken = branches
	}
	if mispredicts > branches {
		mispredicts = branches
	}
	cycles := instructions +
		mispredicts*m.MispredictPenalty +
		(taken-min64(taken, mispredicts))*m.TakenPenalty
	return Cost{
		Instructions: instructions,
		Branches:     branches,
		Taken:        taken,
		Mispredicts:  mispredicts,
		Cycles:       cycles,
	}
}

// Speedup returns how much faster a run with cost b is than one with
// cost a (same instruction stream): cycles(a)/cycles(b).
func Speedup(a, b Cost) float64 {
	if b.Cycles == 0 {
		return 0
	}
	return float64(a.Cycles) / float64(b.Cycles)
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
