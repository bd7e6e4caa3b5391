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

// feedAudit streams one committed round into the auditor: the observed
// per-slot mark counts (round shape), and every physical access with its
// arbitrated start cycle and the round's end (uniformity, serial
// independence, timing). Runs on the round driver at the commit barrier,
// the same discipline as the metrics emissions.
func (f *Frontend) feedAudit(round uint64, kind roundKind, byPart []roundResult) {
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
	}
}
