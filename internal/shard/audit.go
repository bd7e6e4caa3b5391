package shard

import (
	"proram/internal/obs/audit"
)

// slotMark closes one issued access slot inside a partition round: end is
// the round-relative trace index just past the slot's physical accesses,
// and pad records whether the slot was padding (a dummy or a pad-slot
// victim write-back). The marks are the wire-truth of the round's shape —
// the auditor counts them instead of trusting the scheduler's real/dummy
// counters.
type slotMark struct {
	end int
	pad bool
}

// spans is one (round, partition) latency decomposition in cycles, built
// at the commit barrier from round-driver-owned state.
type spans struct {
	service uint64   // round clock floor -> partition data ready
	dram    uint64   // first physical issue -> partition data ready
	ready   uint64   // the partition's post-round clock
	queue   []uint64 // per served request: since -> this floor
	total   []uint64 // per served request: since -> data ready
}

// roundSpans decomposes a committed demand round's latency per partition.
// Completion is each partition's post-arbitration clock; queueing delay is
// measured from the clock floor of the first round that took the request
// (its since) to this round's floor. Runs on the round driver with workers
// quiescent.
func (f *Frontend) roundSpans(floor uint64, byPart []roundResult) []spans {
	out := make([]spans, len(byPart))
	for i := range byPart {
		r := &byPart[i]
		p := f.parts[r.part]
		sp := spans{ready: p.store.Now}
		if sp.ready > floor {
			sp.service = sp.ready - floor
		}
		if len(r.trace) > 0 && sp.ready > r.trace[0].Start {
			sp.dram = sp.ready - r.trace[0].Start
		}
		if len(r.servedSince) > 0 {
			sp.queue = make([]uint64, len(r.servedSince))
			sp.total = make([]uint64, len(r.servedSince))
			for j, since := range r.servedSince {
				var q uint64
				if floor > since {
					q = floor - since
				}
				sp.queue[j] = q
				sp.total[j] = q + sp.service
			}
		}
		out[r.part] = sp
	}
	return out
}

// feedAudit streams one committed round into the auditor: the observed
// per-slot mark counts (round shape), every physical access with its
// arbitrated start cycle and the round's end (uniformity, serial
// independence, timing), and
// the latency spans. Runs on the round driver at the commit barrier, the
// same discipline as the metrics emissions.
func (f *Frontend) feedAudit(round uint64, kind roundKind, byPart []roundResult, sp []spans) {
	a := f.cfg.Audit
	if a == nil {
		return
	}
	for i := range byPart {
		r := &byPart[i]
		switch kind {
		case roundDemand:
			a.RoundShape(round, r.part, audit.ShapeDemand, len(r.marks))
		case roundFlush:
			a.RoundShape(round, r.part, audit.ShapeFlush, len(r.marks))
		case roundPad:
			a.RoundShape(round, r.part, audit.ShapePad, len(r.marks))
		}
		if len(r.trace) > 0 {
			evs := make([]audit.AccessEvent, len(r.trace))
			mi := 0
			for j, ev := range r.trace {
				for mi < len(r.marks) && j >= r.marks[mi].end {
					mi++
				}
				evs[j] = audit.AccessEvent{
					Leaf:  ev.Leaf,
					Start: ev.Start,
					Dummy: mi < len(r.marks) && r.marks[mi].pad,
				}
			}
			// The partition's controller clock is the round's last access's
			// data-ready cycle (arbitrated, on the banked device): it times
			// the round's last slot too.
			a.AccessesUntil(r.part, evs, f.parts[r.part].store.Ctrl.Stats().LastEnd)
		}
		if sp != nil {
			s := &sp[r.part]
			for j := range s.total {
				a.Latency(r.part, s.queue[j], s.service, s.dram, s.total[j])
			}
		}
	}
}
