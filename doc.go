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
// the three conventions the reproduction depends on: bit-for-bit
// determinism from an explicit seed, obliviousness of the ORAM access
// path, and an allocation-free access-path steady state. The oblivious
// and seedplumbing passes are interprocedural: a module-local call graph
// is condensed into strongly connected components and per-function taint
// summaries are computed bottom-up, so a secret that crosses a return
// value, an out-parameter or a helper chain (including recursion) is
// still caught at the caller, and a secret-derived slice/array/map index
// or slice bound is flagged even in straight-line code. Findings are
// suppressed or annotated in the source itself with machine-readable
// //proram: comments:
//
//	//proram:allow <check>[,<check>...] <reason>
//
// suppresses the named checks (determinism, maporder, oblivious,
// panicdiscipline, seedplumbing, allocdiscipline, concdeterminism,
// fixedtrip, branchless, allowhygiene) on the same line or
// the line directly below; written before the package clause it covers
// the whole file. The reason is mandatory in spirit and audited in
// review.
//
//	//proram:hotpath <reason>
//
// in a function's doc comment (or directly above a bare declaration)
// marks it as part of the per-access critical path. The allocdiscipline
// pass then reports every allocation inside it — make, new, append,
// escaping composite literals and closures, slice/map literals, string
// concatenation, string/byte conversions, fmt calls, go statements — and
// follows module-local calls through the same call-graph summaries, so a
// helper that allocates is reported at the hot call site with the chain
// that reaches the allocation. Allocations on paths whose every exit
// panics are exempt (failure handling, not steady state), as are callees
// that are themselves marked hot (checked in their own right) and helper
// allocations justified with //proram:allow allocdiscipline (exempt for
// every hot caller at once). Whether a hot function's indexings stay in
// bounds is not a vet question: Go checks them at run time and the API
// fuzzers (FuzzOps, FuzzConfig, FuzzReplay) drive the public API to them.
//
//	//proram:fixedtrip <reason>
//
// on the line directly above a for or range statement claims the loop's
// trip count is fixed before the loop starts and independent of secret
// data — the padding loops the obliviousness contract rests on. The
// fixedtrip pass verifies the claim statically: a counted loop must
// compare its counter against a loop-invariant non-secret bound with a
// single step per iteration and no early exit, and a range loop must
// iterate a non-secret slice, array, string or integer (maps and
// iterators are rejected). Unmarked loops in the oblivious scope are
// still screened for secret-steered bounds and containers.
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
//	//proram:detround <reason>
//
// attached to a statement the concdeterminism pass flags (a multi-case
// select, a fan-in receive, a spawn-order collection loop) declares that
// the sharded frontend's round barrier makes the outcome deterministic
// anyway. The pass verifies the claim structurally: the annotated code
// must be reachable on the module call graph from a round driver
// (shard.Frontend.dispatch or shard.Replay), the reason is mandatory,
// and a detround that suppresses nothing is itself a finding.
//
// The allowhygiene pass keeps the vocabulary honest: unknown directives,
// unknown check names, justification-free invariants and stale allows
// that suppress nothing are themselves findings.
package proram
