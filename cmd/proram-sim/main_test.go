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
	dram := proram.DRAMBankedPacked
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
		_, err := shardedConfig(map[string]bool{name: true}, 2, 0, 0, 0, proram.SchemeDynamic, 2, 1, proram.DRAMFlat)
		if err == nil || !strings.Contains(err.Error(), "-"+name+" ") {
			t.Errorf("-%s with -partitions 2: err = %v, want a refusal naming the flag", name, err)
		}
	}
}

// TestCheckPartitions covers the other direction: a partition count below
// one and each flag only the sharded frontend reads are refused on a
// unified run instead of dropped.
func TestCheckPartitions(t *testing.T) {
	for _, parts := range []int{0, -3} {
		if err := checkPartitions(nil, parts); err == nil || !strings.Contains(err.Error(), "-partitions") {
			t.Errorf("-partitions %d: err = %v, want a refusal", parts, err)
		}
	}
	for _, name := range shardedOnly {
		set := map[string]bool{name: true}
		if err := checkPartitions(set, 1); err == nil || !strings.Contains(err.Error(), "-"+name+" ") {
			t.Errorf("-%s without -partitions: err = %v, want a refusal naming the flag", name, err)
		}
		if err := checkPartitions(set, 2); err != nil {
			t.Errorf("-%s with -partitions 2: %v", name, err)
		}
	}
	if err := checkPartitions(map[string]bool{"partitions": true, "z": true}, 1); err != nil {
		t.Errorf("-partitions 1 -z: %v", err)
	}
}
