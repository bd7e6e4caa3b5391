package main

import (
	"strings"
	"testing"

	"proram"
)

// TestShardedConfig covers the flag-to-config step of the sharded mode:
// -z and -stash reach the frontend's configuration, and each flag only the
// unified controller honours is refused by name instead of dropped.
func TestShardedConfig(t *testing.T) {
	dram := &proram.DRAMConfig{Model: proram.DRAMBankedPacked}
	cfg, err := shardedConfig(map[string]bool{"z": true, "stash": true, "partitions": true},
		2, 3, 4, 30, proram.SchemeStatic, 4, 9, dram)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Partitions != 2 || cfg.RoundSlots != 3 || cfg.Z != 4 || cfg.StashBlocks != 30 ||
		cfg.Scheme != proram.SchemeStatic || cfg.MaxSuperBlock != 4 || cfg.Seed != 9 || cfg.DRAM != dram {
		t.Fatalf("flags lost on the way to the config: %+v", cfg)
	}
	for _, name := range unifiedOnly {
		_, err := shardedConfig(map[string]bool{name: true}, 2, 0, 0, 0, proram.SchemeDynamic, 2, 1, nil)
		if err == nil || !strings.Contains(err.Error(), "-"+name+" ") {
			t.Errorf("-%s with -partitions 2: err = %v, want a refusal naming the flag", name, err)
		}
	}
}
