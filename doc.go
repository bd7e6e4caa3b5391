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
//     SimConfig and the workload constructors (Synthetic, YCSBWorkload,
//     TPCCWorkload, and NamedWorkload for any Splash2 or SPEC06
//     program).
//
//   - Experiments: every table and figure of the paper's evaluation,
//     regenerable with cmd/proram-bench (and bench_test.go).
//
// The implementation is pure Go, standard library only. DESIGN.md
// documents the architecture and the substitutions made for the paper's
// proprietary substrates; EXPERIMENTS.md records reproduced-vs-paper
// results for every figure.
//
// # Source convention directives
//
// TestSourceConventions (conventions_test.go) parses every non-test Go
// file and holds two source conventions the reproduction depends on:
// bit-for-bit determinism from an explicit seed, and panic discipline in
// library code. No math/rand import, no crypto/rand under internal/, no
// select with a default clause, and no rng.New seeded from literals and
// constants are excused at all. Two machine-read comments excuse the rest,
// each on the site's own line or the line above:
//
//	//proram:allow determinism <reason>
//
// excuses a clock read (time.Now, time.Since, time.Sleep, ...): the
// reason says why no simulated result depends on it.
//
//	//proram:invariant <reason>
//
// excuses a panic outside package main: it declares the panic an internal
// invariant — unreachable unless the program itself is buggy — and says
// why in one line.
//
// Any other //proram: comment, a directive without a reason, and a
// directive that excuses no site on its line or the next fail the test.
// So does an exported function or method under internal/ that no
// non-test file and no other directory's tests name: an export that only
// its own package's tests reach belongs unexported.
//
// Four properties are not source questions, because they are measured
// on the code that runs. Payload independence: the same seeded op stream
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
