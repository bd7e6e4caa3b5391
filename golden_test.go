package proram_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"proram"
)

// The golden metrics dumps pin what the observability export says about a
// run, byte for byte: every counter name, its place in the export and its
// value, every gauge, every histogram bucket — so a refactor of the export
// or of the access path that is meant to change no number changes no byte
// here. The file uses the public API only — it must keep compiling
// against any commit whose dumps it is asked to compare — and SampleEvery
// stays 0 so each golden is a few KB of scalars.
//
// A legitimate change to the export (a new metric, a renamed one) or to the
// protocol's work rewrites the files under testdata/metrics with
// `go test -run Golden -update .`; scripts/regen-pins.sh runs that and the
// other pins' commands.

var update = flag.Bool("update", false, "rewrite testdata/metrics/* with what this commit exports")

// goldenOps drives a deterministic single-client read/write mix: an LCG
// picks the block, every third operation is a write, and runs of eight
// consecutive blocks give the dynamic scheme something to merge.
func goldenOps(t *testing.T, s *proram.ShardedRAM, n int, state *uint64) {
	t.Helper()
	for i := 0; i < n; i++ {
		*state = *state*6364136223846793005 + 1442695040888963407
		base := (*state >> 33) % (s.Blocks() - 8)
		for j := uint64(0); j < 8; j++ {
			if (i+int(j))%3 == 0 {
				if err := s.Write(base+j, []byte{byte(i), byte(j)}); err != nil {
					t.Fatal(err)
				}
			} else if _, err := s.Read(base + j); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// shardedPackedDump runs three partitions on the shared packed device, with
// a cache small enough that installs evict dirty lines, and a Flush in the
// middle and at the end.
func shardedPackedDump(t *testing.T) []byte {
	t.Helper()
	cfg := proram.DefaultConfig()
	cfg.Blocks = 1 << 12
	cfg.CacheBlocks = 96
	cfg.Partitions = 3
	cfg.Seed = 7
	cfg.DRAM = &proram.DRAMConfig{Model: proram.DRAMBankedPacked}
	var out bytes.Buffer
	s, err := proram.NewSharded(cfg, proram.ShardedOptions{Obs: &proram.ObsConfig{MetricsOut: &out}})
	if err != nil {
		t.Fatal(err)
	}
	state := uint64(1)
	goldenOps(t, s, 60, &state)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	goldenOps(t, s, 40, &state)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// simulatorDump runs the workloads back to back on one Simulator, so the
// second system's metrics carry the p2. prefix and the first system's are
// exported after it has finished.
func simulatorDump(t *testing.T, cfg proram.SimConfig, workloads ...proram.Workload) []byte {
	t.Helper()
	var out bytes.Buffer
	cfg.Obs = &proram.ObsConfig{MetricsOut: &out}
	s, err := proram.NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if _, err := s.Run(w); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.CloseObs(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

func synthetic(t *testing.T, ops uint64, locality float64, seed uint64) proram.Workload {
	t.Helper()
	w, err := proram.Synthetic(proram.SyntheticConfig{
		Ops: ops, LocalityFraction: locality, WriteFraction: 0.25, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestGoldenMetrics(t *testing.T) {
	for _, tc := range []struct {
		name string
		dump func(*testing.T) []byte
	}{
		{"sharded_packed_flush", shardedPackedDump},
		{"sim_oram_dynamic_two_runs", func(t *testing.T) []byte {
			return simulatorDump(t, proram.SimConfig{Scheme: proram.SchemeDynamic, ORAMBlocks: 1 << 15, Seed: 3},
				synthetic(t, 12000, 0.8, 1), synthetic(t, 8000, 0.2, 2))
		}},
		{"sim_oram_packed_periodic_warmup", func(t *testing.T) []byte {
			return simulatorDump(t, proram.SimConfig{
				Scheme: proram.SchemeDynamic, MaxSuperBlock: 4, ORAMBlocks: 1 << 15, Seed: 5,
				DRAM:     &proram.DRAMConfig{Model: proram.DRAMBankedPacked},
				Periodic: true, WarmupOps: 2000, StashBlocks: 4,
			}, synthetic(t, 8000, 0.6, 4))
		}},
		{"sim_dram_stream", func(t *testing.T) []byte {
			return simulatorDump(t, proram.SimConfig{Memory: proram.MemoryDRAM, StreamPrefetcher: true},
				synthetic(t, 12000, 0.8, 1), proram.YCSBWorkload(8000))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.dump(t)
			path := filepath.Join("testdata", "metrics", tc.name+".json")
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("metrics dump differs from the golden file\n--- got\n%s\n--- want\n%s", got, want)
			}
		})
	}
}
