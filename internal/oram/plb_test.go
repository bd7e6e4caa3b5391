package oram

import (
	"fmt"
	"testing"

	"proram/internal/mem"
	"proram/internal/rng"
	"proram/internal/superblock"
)

// The exclusive PLB's property test sweeps these four dimensions. The
// hierarchy under plbSweepConfig has 128 + 32 + 8 position-map blocks, so
// the last capacity holds all of them and never evicts.
var (
	sweepPLBs    = []int{0, 1, 2, 128, 200}
	sweepSchemes = []superblock.Scheme{superblock.None, superblock.Static, superblock.Dynamic}
	sweepBools   = []bool{false, true}
)

const sweepOps = 1200

// inclusiveHighWater is StashHighWater of the same sweep — same seeds, same
// operations — at the last commit whose PLB was inclusive (a victim stayed
// in the tree and cost a path access to write back), indexed like the
// sweep: [plb][scheme][periodic][prefill]. It was produced at commit
// 24ad361 (PR 22) by copying sweepPLBs, sweepSchemes, sweepBools, sweepOps,
// plbSweepConfig and plbSweepRun from this file into internal/oram there
// and logging plbSweepRun(t, plbSweepConfig(...), nil).Stats().StashHighWater
// for every cell under `go test -run <that test> -v ./internal/oram`; that
// commit is the only place the numbers can be reproduced.
//
// An exclusive PLB keeps up to its capacity of blocks out of the tree and
// hands them to the stash one at a time, so the bound is the inclusive high
// water plus the capacity. It holds in 50 of the 60 cells. The ten that pass
// it are all at capacities 1 and 2, where nearly every access evicts and the
// two protocols draw different leaf sequences from the first victim on;
// highWaterExcess lists each with the excess observed, and the test holds
// the cell to exactly that.
var highWaterExcess = map[string]int{
	"plb=1/none/periodic=false/prefill=false":    4,
	"plb=1/static/periodic=false/prefill=false":  5,
	"plb=1/static/periodic=true/prefill=false":   2,
	"plb=1/dynamic/periodic=false/prefill=false": 3,
	"plb=1/dynamic/periodic=false/prefill=true":  3,
	"plb=1/dynamic/periodic=true/prefill=true":   2,
	"plb=2/none/periodic=false/prefill=false":    5,
	"plb=2/static/periodic=false/prefill=false":  3,
	"plb=2/static/periodic=false/prefill=true":   6,
	"plb=2/dynamic/periodic=false/prefill=true":  1,
}

var inclusiveHighWater = [5][3][2][2]int{
	{{{16, 22}, {14, 18}}, {{22, 26}, {19, 24}}, {{20, 23}, {18, 22}}}, // PLB 0
	{{{18, 24}, {16, 18}}, {{24, 30}, {22, 24}}, {{24, 22}, {24, 19}}}, // PLB 1
	{{{19, 22}, {16, 16}}, {{26, 29}, {22, 24}}, {{24, 26}, {23, 22}}}, // PLB 2
	{{{21, 26}, {16, 17}}, {{33, 32}, {19, 21}}, {{24, 33}, {20, 19}}}, // PLB 128
	{{{23, 24}, {14, 17}}, {{30, 32}, {22, 25}}, {{29, 34}, {17, 20}}}, // PLB 200
}

func plbSweepConfig(plb int, scheme superblock.Scheme, periodic, prefill bool) Config {
	cfg := DefaultConfig()
	cfg.NumBlocks = 1 << 9
	cfg.Fanout = 4
	cfg.OnChipEntries = 8
	cfg.PLBBlocks = plb
	cfg.Periodic = periodic
	cfg.Prefill = prefill
	cfg.Seed = 11
	switch scheme {
	case superblock.Static:
		cfg.Super = superblock.Config{Scheme: superblock.Static, MaxSize: 2}
	case superblock.Dynamic:
		cfg.Super = superblock.DefaultConfig()
	}
	return cfg
}

// plbSweepRun drives sweepOps mixed reads and write-backs — short
// sequential runs, so the dynamic scheme merges, between uniform jumps, so
// the PLB misses; one in four a write-back; idle gaps, so a periodic
// controller issues dummies — and calls check, if any, around every access
// with the number of recursion levels the PLB is about to miss.
func plbSweepRun(t *testing.T, cfg Config, check func(c *Controller, before Stats, walk int, res Result)) *Controller {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	llc := newFakeLLC()
	c.SetProber(llc)
	r := rng.New(cfg.Seed + 1)
	now, idx := uint64(0), uint64(0)
	for i := 0; i < sweepOps; i++ {
		if idx++; r.Intn(6) == 0 || idx >= cfg.NumBlocks {
			idx = r.Uint64n(cfg.NumBlocks)
		}
		walk := c.pm.Depth()
		for l, covered := 1, idx; l <= c.pm.Depth(); l++ {
			covered /= uint64(cfg.Fanout)
			if c.plb.Contains(mem.MakeID(l, covered)) {
				walk = l - 1
				break
			}
		}
		before := c.Stats()
		var res Result
		if i%4 == 3 {
			res = c.Write(now, idx)
		} else {
			res = c.Read(now, idx)
			llc.add(idx)
			llc.add(res.Prefetched...)
		}
		now = res.Done + r.Uint64n(3000)
		if check != nil {
			check(c, before, walk, res)
		}
	}
	return c
}

// TestExclusivePLBProperties checks, after every access of the sweep: the
// three-home invariant, the accounting identities, that no path access was
// spent on a PLB victim, and that the access cost one data path plus one
// path per recursion level the PLB missed (plus whatever stash pressure and
// the periodic schedule added). At the end the stash high water is held
// against the inclusive PLB's.
func TestExclusivePLBProperties(t *testing.T) {
	if testing.Short() {
		t.Skip("sixty configurations, an O(blocks) invariant check after every access")
	}
	for pi, plb := range sweepPLBs {
		for si, scheme := range sweepSchemes {
			for bi, periodic := range sweepBools {
				for fi, prefill := range sweepBools {
					name := fmt.Sprintf("plb=%d/%v/periodic=%v/prefill=%v", plb, scheme, periodic, prefill)
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						c := plbSweepRun(t, plbSweepConfig(plb, scheme, periodic, prefill),
							func(c *Controller, before Stats, walk int, res Result) {
								if err := c.CheckInvariant(); err != nil {
									t.Fatal(err)
								}
								s := c.Stats()
								if err := s.Validate(); err != nil {
									t.Fatal(err)
								}
								if s.PLBWritebackPaths != 0 {
									t.Fatalf("%d path accesses spent on PLB victims", s.PLBWritebackPaths)
								}
								d := s.Sub(before)
								if d.PosMapPaths != uint64(walk) {
									t.Fatalf("walked %d recursion levels, the PLB missed %d", d.PosMapPaths, walk)
								}
								if want := 1 + d.PosMapPaths + d.BackgroundEvictions + d.DummyAccesses; uint64(res.PathCount) != want {
									t.Fatalf("PathCount %d, want %d (1 data + %d pos-map + %d background + %d dummy)",
										res.PathCount, want, d.PosMapPaths, d.BackgroundEvictions, d.DummyAccesses)
								}
								var cycles uint64
								for _, k := range d.KindCycles {
									cycles += k
								}
								if cycles != d.BusyCycles {
									t.Fatalf("the access's per-kind cycles sum to %d, its busy cycles are %d", cycles, d.BusyCycles)
								}
							})
						if c.plb.Len() > plb {
							t.Fatalf("PLB holds %d blocks, capacity %d", c.plb.Len(), plb)
						}
						if got, was := c.Stats().StashHighWater, inclusiveHighWater[pi][si][bi][fi]; got > was+plb+highWaterExcess[name] {
							t.Errorf("stash high water %d, inclusive PLB's %d + capacity %d + recorded excess %d", got, was, plb, highWaterExcess[name])
						}
					})
				}
			}
		}
	}
}
