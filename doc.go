// Package repro reproduces "Analyzing the Working Set Characteristics of
// Branch Execution" (Sangwook P. Kim and Gary S. Tyson, MICRO 1998) as a
// complete, self-contained Go system.
//
// The paper introduces branch working set analysis — a profile-based
// technique that time-stamps conditional branch executions, summarizes
// their interleaving as a weighted branch conflict graph, and reads the
// graph's completely-connected subgraphs as the program's branch working
// sets — and applies it to branch allocation: compiler-directed
// assignment of branches to Branch History Table entries by graph
// coloring, which removes most BHT interference in a PAg two-level
// predictor.
//
// This module contains everything needed to regenerate the paper's
// evaluation (Tables 1-4 and Figures 3-4):
//
//   - internal/isa, internal/program, internal/vm: a small RISC machine
//     and interpreter standing in for SimpleScalar;
//   - internal/workload: a 13-benchmark synthetic suite whose
//     control-flow shape is tuned to the paper's SPECint95/UNIX
//     measurements;
//   - internal/trace, internal/profile: the branch event stream's
//     frequency filter and the interleave profiler;
//   - internal/graph, internal/classify, internal/core: the conflict
//     graph, taken-rate classification, working-set analysis and the
//     branch allocator (the paper's contribution);
//   - internal/predict: PAg and baseline predictors with pluggable BHT
//     indexing;
//   - internal/harness: the experiment definitions;
//   - cmd/tables, cmd/wsanalyze, cmd/allocate, cmd/branchsim: CLIs;
//   - examples/: runnable walkthroughs that drive those packages
//     directly.
//
// This package holds no code: only this overview and the end-to-end
// tests that walk the pipeline across the packages above. Start with
// README.md, DESIGN.md (system inventory and per-experiment index) and
// EXPERIMENTS.md (paper-vs-measured results).
package repro
