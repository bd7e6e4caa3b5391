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
// two source conventions the reproduction depends on: bit-for-bit
// determinism from an explicit seed, and panic discipline in library
// code. Findings are suppressed or annotated in the source itself with
// machine-readable //proram: comments:
//
//	//proram:allow <check>[,<check>...] <reason>
//
// suppresses the named checks (determinism, panicdiscipline,
// allowhygiene) on the same line or the line directly below; written
// before the package clause it covers the whole file. The reason is
// mandatory in spirit and audited in review.
//
//	//proram:invariant <justification>
//
// attached to a panic call (same line or the line above) declares the
// panic an internal invariant — unreachable unless the program itself is
// buggy — and must say why in one line.
//
// The allowhygiene pass keeps the vocabulary honest: unknown directives,
// unknown check names, justification-free invariants and stale allows
// that suppress nothing are themselves findings.
//
// Four properties are not vet questions, because they are measured on
// the code that runs. Payload independence: the same seeded op stream
// with zero, 0xFF, one-byte and random payloads must give the same
// access trace and counters, through the unified RAM
// (TestRAMPayloadsDoNotSteerAccesses) and the sharded frontend
// (TestPayloadsDoNotSteerAccesses), and TestPayloadFieldsStayContained
// keeps the sharded frontend's payload fields to the few lines where
// bytes enter and leave it. Allocation-freedom: AllocsPerRun tests in
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
