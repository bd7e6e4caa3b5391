package exp

import (
	"fmt"

	"proram/internal/sim"
	"proram/internal/superblock"
	"proram/internal/trace"
)

func init() {
	register("fig6a", "Locality sweep on the synthetic benchmark (Z=4)", fig6a)
	register("fig6b", "Phase-change behaviour of super block variants (Z=4)", fig6b)
	register("fig7", "Super block size sweep on the 100%-locality synthetic benchmark (Z=4)", fig7)
}

// fig67Ops is the full-size synthetic op count.
const fig67Ops = 500_000

// fig7Ops is smaller: the size-8 static configuration thrashes the stash
// (the figure's point), which makes every access cost dozens of background
// evictions; the crossover shape is fully developed at this size.
const fig7Ops = 150_000

// syntheticFactory builds the §5.3 microbenchmark.
func syntheticFactory(ops uint64, locality float64, phaseLen uint64, seed uint64) genFactory {
	cfg := trace.SyntheticConfig{
		Ops:              ops,
		WorkingSetBytes:  2 << 20,
		LocalityFraction: locality,
		RunLen:           32,
		Gap:              6,
		WriteFraction:    0.25,
		PhaseLen:         phaseLen,
		Seed:             401 + seed,
	}
	return func() trace.Generator { return trace.NewSynthetic(cfg) }
}

// z4 applies the synthetic section's Z=4 setting.
func z4(cfg sim.Config) sim.Config {
	cfg.ORAM.Z = 4
	return cfg
}

// fig6a sweeps the fraction of data with locality: the static scheme wins
// only with good locality, the dynamic scheme never loses.
func fig6a(opt Options) (*Table, error) {
	t := &Table{
		ID:      "fig6a",
		Title:   "Speedup vs. percentage of data locality (synthetic, Z=4)",
		Columns: []string{"stat", "dyn"},
	}
	ops := opt.scale(fig67Ops)
	for _, loc := range []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0} {
		r, err := runEach(opt, ops, syntheticFactory(ops, loc, 0, opt.Seed),
			z4(baseORAM()), z4(withScheme(baseORAM(), statScheme(2))), z4(withScheme(baseORAM(), dynScheme())))
		if err != nil {
			return nil, fmt.Errorf("fig6a loc=%v: %w", loc, err)
		}
		t.AddRow(fmt.Sprintf("%.0f%%", loc*100), speedup(r[0], r[1]), speedup(r[0], r[2]))
	}
	t.Notes = append(t.Notes, "speedup over baseline ORAM; locality = fraction of data accessed sequentially")
	return t, nil
}

// fig6b compares the Figure 6b variants under phase change: the static
// scheme, static merge without breaking (sm_nb), adaptive merge without
// breaking (am_nb), and full PrORAM (am_ab).
func fig6b(opt Options) (*Table, error) {
	t := &Table{
		ID:      "fig6b",
		Title:   "Phase change: speedup and normalized accesses per variant (synthetic, Z=4)",
		Columns: []string{"speedup", "norm_acc"},
	}
	variants := []struct {
		name string
		sb   superblock.Config
	}{
		{"static", statScheme(2)},
		{"sm_nb", superblock.Config{Scheme: superblock.Dynamic, MaxSize: 2,
			MergeMode: superblock.ThresholdStatic, BreakMode: superblock.ThresholdStatic,
			DisableBreak: true, CMerge: 1, CBreak: 1, Window: 1000}},
		{"am_nb", superblock.Config{Scheme: superblock.Dynamic, MaxSize: 2,
			MergeMode: superblock.ThresholdAdaptive, BreakMode: superblock.ThresholdAdaptive,
			DisableBreak: true, CMerge: 1, CBreak: 1, Window: 1000}},
		{"am_ab", dynScheme()},
	}
	cfgs := []sim.Config{z4(baseORAM())}
	for _, v := range variants {
		cfgs = append(cfgs, z4(withScheme(baseORAM(), v.sb)))
	}
	ops := opt.scale(fig67Ops)
	r, err := runEach(opt, ops, syntheticFactory(ops, 0.5, ops/8, opt.Seed), cfgs...)
	if err != nil {
		return nil, fmt.Errorf("fig6b: %w", err)
	}
	for i, v := range variants {
		t.AddRow(v.name, speedup(r[0], r[i+1]), normAccesses(r[0], r[i+1]))
	}
	t.Notes = append(t.Notes,
		"phase-change synthetic: sequential and random halves swap every ops/8 operations",
		"sm/am = static/adaptive merge thresholding; nb/ab = no / adaptive breaking")
	return t, nil
}

// fig7 sweeps the (maximum) super block size on a 100%-locality synthetic:
// the static scheme degrades with size (background evictions), the dynamic
// scheme throttles itself.
func fig7(opt Options) (*Table, error) {
	t := &Table{
		ID:      "fig7",
		Title:   "Super block size sweep, 100%-locality synthetic (Z=4)",
		Columns: []string{"stat_speedup", "dyn_speedup", "stat_norm_acc", "dyn_norm_acc"},
	}
	sizes := []int{2, 4, 8}
	cfgs := []sim.Config{z4(baseORAM())}
	for _, size := range sizes {
		dyn := dynScheme()
		dyn.MaxSize = size
		cfgs = append(cfgs, z4(withScheme(baseORAM(), statScheme(size))), z4(withScheme(baseORAM(), dyn)))
	}
	ops := opt.scale(fig7Ops)
	r, err := runEach(opt, ops, syntheticFactory(ops, 1.0, 0, opt.Seed), cfgs...)
	if err != nil {
		return nil, fmt.Errorf("fig7: %w", err)
	}
	for i, size := range sizes {
		stat, dyn := r[2*i+1], r[2*i+2]
		t.AddRow(fmt.Sprintf("%d", size),
			speedup(r[0], stat), speedup(r[0], dyn),
			normAccesses(r[0], stat), normAccesses(r[0], dyn))
	}
	t.Notes = append(t.Notes, "sbsize is the static merge granularity / dynamic maximum size")
	return t, nil
}
