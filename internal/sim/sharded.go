package sim

import (
	"fmt"

	"proram/internal/shard"
	"proram/internal/trace"
)

// RunSharded drives a sharded frontend from a trace generator under a
// closed-loop admission model: `window` clients each keep one request
// outstanding, so every scheduling round admits the next `window`
// operations of the stream. Trace addresses are folded onto the frontend's
// capacity: an operation touches block (Addr / BlockBytes) mod Blocks. The
// model is deterministic — the arrival log is a pure function of the
// trace — so two runs are byte-identical, and the statistics' integers are
// safe to pin in benchmark baselines.
func RunSharded(cfg shard.Config, g trace.Generator, window int) (shard.Stats, error) {
	if window < 1 {
		return shard.Stats{}, fmt.Errorf("sim: sharded window %d must be >= 1", window)
	}
	if cfg.BlockBytes <= 0 || cfg.Blocks == 0 {
		return shard.Stats{}, fmt.Errorf("sim: sharded config needs Blocks and BlockBytes")
	}
	arrivals := make([]shard.Arrival, 0, g.Len())
	var seq uint64
	for {
		op, ok := g.Next()
		if !ok {
			break
		}
		arrivals = append(arrivals, shard.Arrival{
			Seq:   seq,
			Index: (op.Addr / uint64(cfg.BlockBytes)) % cfg.Blocks,
			Write: op.Write,
			Round: seq / uint64(window),
		})
		seq++
	}
	_, stats, err := shard.Replay(cfg, arrivals)
	return stats, err
}
