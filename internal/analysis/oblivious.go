package analysis

import "strings"

// Oblivious is the interprocedural taint pass over the ORAM access
// path. Sources are reads of struct fields declared with a
// //proram:secret directive (mem.Block.Data, the declared shape of a
// decrypted block payload, and the payload copies internal/shard moves
// between clients and partitions). Taint propagates through assignments,
// arithmetic, indexing and — via the bottom-up function summaries in
// summary.go — through module-local calls: a helper that copies,
// serializes or compares payload bytes carries the taint into its
// callers, and a helper that branches on a parameter becomes a sink for
// every caller that passes secret data in.
//
// Three sink families are reported:
//
//   - branch sinks: if/for/switch conditions — a data-dependent branch
//     decides *which* accesses happen next, exactly the access-pattern
//     leakage Path ORAM exists to remove ("Revisiting Definitional
//     Foundations of Oblivious RAM" catalogues how easily
//     secure-processor implementations violate this silently);
//   - secret-index sinks: a secret-derived slice, array or map index or
//     slice bound — a secret-dependent address is the classic ORAM leak
//     even when control flow is straight-line;
//   - observability emissions: a metric name, series value or trace
//     argument derived from payload bytes writes the secret straight
//     into an exported file (calls into internal/obs).
//
// len and cap sanitize (block geometry is public by construction), and
// an explicit //proram:public declassifies at an assignment or sink.
//
// A fourth family covers concurrency: secret-derived values selecting
// which channel is sent on or received from, what a go statement runs,
// or which lock is acquired are scheduling sinks — contention and
// interleaving are observable off-chip as timing, exactly like a
// secret-derived address.
//
// The default scope is the trusted controller surface: internal/oram,
// internal/stash, internal/posmap, plus the concurrent frontend
// internal/shard and the memory model internal/dram/banked. Pass
// explicit module-relative scopes to analyze other packages (the
// fixture tests do). Summaries are computed over the whole program
// regardless of scope, so secrets that leave a scoped package through a
// helper in another package are still tracked back to the scoped caller.
func Oblivious(scopes ...string) *Pass {
	if len(scopes) == 0 {
		scopes = []string{"internal/oram", "internal/stash", "internal/posmap", "internal/shard", "internal/dram/banked"}
	}
	p := &Pass{
		Name: "oblivious",
		Doc:  "flag branches, memory indexes and observability emissions that depend on secret block payload bytes (interprocedural)",
	}
	p.Run = func(u *Unit) {
		if !inScope(u.Pkg.Rel, scopes) {
			return
		}
		sums := u.Prog.taintSummaries()
		for _, node := range u.Funcs() {
			for _, r := range sums.byFunc[node.Fn].reports {
				u.Reportf(r.pos, "%s", r.msg)
			}
		}
	}
	return p
}

func inScope(rel string, scopes []string) bool {
	for _, s := range scopes {
		if rel == s || strings.HasPrefix(rel, s+"/") {
			return true
		}
	}
	return false
}
