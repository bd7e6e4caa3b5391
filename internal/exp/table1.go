package exp

import (
	"proram/internal/oram"
	"proram/internal/sim"
)

func init() {
	register("table1", "System configuration (effective simulator parameters)", table1)
}

// table1 reports the effective configuration the other experiments run
// with, next to the paper's Table 1 values.
func table1(Options) (*Table, error) {
	cfg := sim.DefaultConfig(sim.TechORAM)
	ctrl, err := oram.New(func() oram.Config {
		c := cfg.ORAM
		c.BlockBytes = cfg.BlockBytes
		c.DRAM = cfg.DRAM
		c.Prefill = false // sizing only
		return c
	}())
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "table1",
		Title:   "System configuration",
		Columns: []string{"simulator", "paper"},
	}
	t.AddRow("core_GHz", 1, 1) // every timing model counts 1 GHz core cycles
	t.AddRow("l1_KB", float64(cfg.Hier.L1.SizeBytes)/1024, 32)
	t.AddRow("l1_ways", float64(cfg.Hier.L1.Ways), 4)
	t.AddRow("l2_KB", float64(cfg.Hier.L2.SizeBytes)/1024, 512)
	t.AddRow("l2_ways", float64(cfg.Hier.L2.Ways), 8)
	t.AddRow("cacheline_B", float64(cfg.BlockBytes), 128)
	t.AddRow("dram_GBps", cfg.DRAM.BandwidthGBps, 16)
	t.AddRow("dram_latency_cyc", float64(cfg.DRAM.LatencyCycles), 100)
	t.AddRow("oram_capacity_MB", float64(cfg.ORAM.NumBlocks)*float64(cfg.BlockBytes)/(1<<20), 8192)
	t.AddRow("oram_hierarchies", float64(hierarchies(ctrl)), 4)
	t.AddRow("oram_block_B", float64(cfg.BlockBytes), 128)
	t.AddRow("path_latency_cyc", float64(ctrl.PathLatency()), 2364)
	t.AddRow("Z", float64(cfg.ORAM.Z), 3)
	t.AddRow("max_super_block", 2, 2)
	t.AddRow("stash_blocks", float64(cfg.ORAM.StashLimit), 100)
	t.AddRow("tree_levels", float64(ctrl.TreeLevels()), 25)
	t.Notes = append(t.Notes,
		"capacity and path latency are scaled down with the default 128 MB simulated ORAM;",
		"set ORAM.NumBlocks = 1<<26 (and PathLatencyOverride = 2364) for the paper's full size")
	return t, nil
}

// hierarchies counts ORAM hierarchies the paper's way: data + position-map
// levels.
func hierarchies(c *oram.Controller) int {
	// The controller's tree holds depth+1 hierarchy levels in one unified
	// tree; report the recursion depth + data level.
	return c.PosMapDepth() + 1
}
