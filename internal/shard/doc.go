// Package shard is the partitioned ORAM frontend: it splits one logical
// block address space across P independent Path ORAM controllers (each
// with its own tree, stash, recursive position map and PrORAM prefetcher)
// and serves concurrent clients through a batching request scheduler whose
// observable behaviour is independent of the request mix.
//
// The design follows the partition architecture of Stefanov et al.,
// "Towards Practical Oblivious RAM": many small ORAMs are cheaper to
// operate than one large one, and they can run in parallel. PrORAM's
// dynamic super block prefetcher runs unchanged inside every partition.
//
// # Routing
//
// A block is routed by a seeded keyed hash to one of G indirection groups,
// and group g lives on partition g mod P. The lookup is straight-line
// arithmetic — a hash, a mask and a fastmod, with no branch, table load or
// division — so it is oblivious; TestLookupIsStraightLine holds that shape.
// Within a partition, global block indices get dense local slots in
// first-touch order, which preserves temporal adjacency — the locality the
// per-partition prefetcher feeds on.
//
// # Scheduling and obliviousness
//
// Requests from any number of goroutines enter per-partition FIFO queues.
// A single dispatcher forms scheduling rounds, runs partition 0's share of
// each round itself and hands every other partition's to that partition's
// worker goroutine. Each round, every partition executes exactly
// RoundSlots full recursive ORAM accesses — one demand access per missing
// request, then, up to the fixed count, write-backs of
// the dirty lines those misses evicted into the cache's victim queue and
// dummy accesses (reads of uniformly random local blocks) once the queue
// is empty. Requests whose block already sits in the partition's
// client-side cache, queued victims included, are served without consuming
// a slot (on-chip work is invisible to the adversary), which is also how
// duplicate requests in one round coalesce. Requests that do not fit in
// the round's budget, or whose evictions the queue has no room for, carry
// over to the next round. The adversary therefore
// sees every partition perform the same number of indistinguishable
// accesses every round, whatever the request skew; within a slot, the path
// count still varies with PLB and stash behaviour (one path per recursion
// level the PLB misses; a PLB victim costs none), the same declared
// recursion-level leak as the unified controller (DESIGN.md §10). Payload
// bytes steer none of it: TestPayloadsDoNotSteerAccesses runs one op
// stream under four payload families and wants the same access log.
//
// # Determinism and replay
//
// Every run records (optionally) its arrival log: the admission order of
// requests and the round each was admitted to. Under a fixed seed, the
// global physical access sequence — every (round, partition, leaf, kind)
// tuple, committed in (round, partition) order — is a pure function of
// that log, even though partitions execute concurrently: each partition's
// controller consumes only its own deterministic slot stream, and the
// round barrier resynchronizes the simulated clocks. Replay re-runs an
// arrival log and returns the canonical byte encoding of the sequence;
// two replays of the same log and seed are byte-for-byte identical, which
// is what keeps the repository's seed-determinism convention and the obs
// byte-stable dumps meaningful on concurrent code.
package shard
