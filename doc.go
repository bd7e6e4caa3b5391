// Package proram is a from-scratch reproduction of "PrORAM: Dynamic
// Prefetcher for Oblivious RAM" (Yu, Haider, Ren, Fletcher, Kwon,
// van Dijk, Devadas — ISCA 2015).
//
// It provides three things:
//
//   - RAM: a usable oblivious RAM — a Path ORAM store with the PrORAM
//     dynamic super block prefetcher, holding real (encrypted) data. See
//     New and Config.
//
//   - Simulator: the paper's secure-processor memory-system simulator
//     (in-order core, L1/LLC, DRAM or Path ORAM with super block
//     schemes), driven by workload generators. See NewSimulator,
//     SimConfig and the workload constructors (Synthetic, Splash2,
//     SPEC06, YCSB, TPCC).
//
//   - Experiments: every table and figure of the paper's evaluation,
//     regenerable via Experiment and ExperimentIDs (also exposed by
//     cmd/proram-bench and bench_test.go).
//
// The implementation is pure Go, standard library only. DESIGN.md
// documents the architecture and the substitutions made for the paper's
// proprietary substrates; EXPERIMENTS.md records reproduced-vs-paper
// results for every figure.
//
// # Static analysis directives
//
// The repository carries its own static-analysis suite (go run
// ./cmd/proram-vet ./..., package proram/internal/analysis) that enforces
// two conventions the reproduction depends on: bit-for-bit determinism
// from an explicit seed and obliviousness of the ORAM access path. The
// oblivious and seedplumbing passes are interprocedural: a module-local
// call graph is condensed into strongly connected components and
// per-function taint summaries are computed bottom-up, so a secret that
// crosses a return value, an out-parameter or a helper chain (including
// recursion) is still caught at the caller, and a secret-derived
// slice/array/map index or slice bound is flagged even in straight-line
// code. Findings are suppressed or annotated in the source itself with
// machine-readable //proram: comments:
//
//	//proram:allow <check>[,<check>...] <reason>
//
// suppresses the named checks (determinism, oblivious, panicdiscipline,
// seedplumbing, branchless, allowhygiene) on the same line or the line
// directly below; written
// before the package clause it covers the whole file. The reason is
// mandatory in spirit and audited in review.
//
//	//proram:branchless <reason>
//
// in a function's doc comment requires the function — and everything it
// calls — to be free of data-dependent control flow: no if/switch/select
// on values derived from the function's inputs or secret payload bytes,
// no short-circuit &&/||, no map probes, no variable shifts, no min/max
// builtins that may compile to a branch. math/bits and crypto/subtle
// are trusted primitives; a marked
// callee is checked in its own right; //proram:public declassifies.
//
//	//proram:invariant <justification>
//
// attached to a panic call (same line or the line above) declares the
// panic an internal invariant — unreachable unless the program itself is
// buggy — and must say why in one line.
//
//	//proram:public <reason>
//
// attached to an assignment or condition declassifies a value the
// oblivious taint pass would otherwise treat as secret; use only for
// values that are public by protocol.
//
//	//proram:secret
//
// on a struct field marks it as a taint source: shard's request and
// response payloads, and mem.Block.Data, the declared shape of a decrypted
// payload (DESIGN.md §8 says what that covers and what it does not — the
// client cache's plaintext is outside it). Taint survives module-local
// calls: up to 62 parameters are tracked per function with per-parameter
// origin bits, anything beyond that degrades soundly to an opaque origin
// that never crosses a call boundary. Beyond branches and indexes, the
// oblivious pass treats scheduling choices as sinks: a secret reaching
// the target of a channel send or receive, the callee expression of a go
// statement, or the receiver of a mutex Lock/RLock is flagged, because
// which partition, lock or goroutine a worker touches is as observable
// as which address it reads.
//
// The allowhygiene pass keeps the vocabulary honest: unknown directives,
// unknown check names, justification-free invariants and stale allows
// that suppress nothing are themselves findings.
//
// Three properties are not vet questions, because they are measured on
// the code that runs. Allocation-freedom: AllocsPerRun tests in
// internal/oram, internal/stash, internal/shard, internal/dram and
// internal/prefetch pin zero steady-state allocations, and the repository
// benchmark bounds allocs_per_op end to end. Index safety: Go checks every
// index at run time, and the API fuzzers (FuzzOps, FuzzConfig, FuzzReplay)
// drive the public API to them. Order independence of map iteration and
// goroutine scheduling: repeated runs must give the same bytes
// (TestDeterministicReports, the pinned baselines and goldens), and a live
// sharded run must match its own Replay (the Replay byte-identity tests,
// FuzzReplay).
package proram
