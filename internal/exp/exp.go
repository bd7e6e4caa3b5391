// Package exp regenerates every table and figure of the paper's evaluation
// (§5). Each experiment is registered under the paper's table/figure id
// ("fig8a", "fig12", ...) and produces a Table whose rows/series mirror
// what the paper plots, runnable from cmd/proram-bench, from bench_test.go
// and from tests that assert the qualitative shapes.
package exp

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"proram/internal/obs"
	"proram/internal/obs/audit"
	"proram/internal/sim"
	"proram/internal/superblock"
	"proram/internal/trace"
)

// Options scales an experiment.
type Options struct {
	// Scale multiplies every workload's operation count. 1.0 reproduces
	// the full-size runs; bench_test.go uses smaller scales. Zero,
	// negative and NaN values mean 1.0.
	Scale float64
	// Seed offsets the workload seeds, for variance studies.
	Seed uint64
	// Obs attaches an observability recorder to every system the
	// experiment builds; nil (the default) runs un-instrumented. Systems
	// appear in the trace as successive processes.
	Obs *obs.Recorder
	// Audit, when non-nil, collects the full per-configuration audit
	// reports of auditing experiments (audit2) — the suite serialized as
	// the pinned AUDIT artifact.
	Audit *audit.Suite
}

func (o Options) scale(ops uint64) uint64 {
	s := o.Scale
	if !(s > 0) {
		s = 1
	}
	n := uint64(float64(ops) * s)
	if n < 1000 {
		n = 1000
	}
	return n
}

// Table is one regenerated table/figure.
type Table struct {
	ID      string
	Title   string
	Columns []string // value column names (the figure's series)
	Rows    []Row
	Notes   []string
}

// Row is one x-axis point (a benchmark, a sweep value, ...).
type Row struct {
	Label string
	Cells []float64
}

// AddRow appends a row, checking arity.
func (t *Table) AddRow(label string, cells ...float64) {
	if len(cells) != len(t.Columns) {
		//proram:invariant a row arity mismatch is a harness bug in a compiled-in experiment table, not runtime input
		panic(fmt.Sprintf("exp: row %q has %d cells for %d columns", label, len(cells), len(t.Columns)))
	}
	t.Rows = append(t.Rows, Row{Label: label, Cells: cells})
}

// Cell returns the value at (rowLabel, column); ok is false if absent.
func (t *Table) Cell(rowLabel, column string) (float64, bool) {
	ci := -1
	for i, c := range t.Columns {
		if c == column {
			ci = i
		}
	}
	if ci < 0 {
		return 0, false
	}
	for _, r := range t.Rows {
		if r.Label == rowLabel {
			return r.Cells[ci], true
		}
	}
	return 0, false
}

// MustCell is Cell that panics when the coordinate is missing (harness
// programming error).
func (t *Table) MustCell(rowLabel, column string) float64 {
	v, ok := t.Cell(rowLabel, column)
	if !ok {
		//proram:invariant Must-prefixed accessor, documented to panic when the harness asks for a cell it never produced
		panic(fmt.Sprintf("exp: %s has no cell (%q, %q)", t.ID, rowLabel, column))
	}
	return v
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	width := 14
	for _, r := range t.Rows {
		if len(r.Label)+2 > width {
			width = len(r.Label) + 2
		}
	}
	fmt.Fprintf(&b, "%-*s", width, "")
	for _, c := range t.Columns {
		fmt.Fprintf(&b, "%14s", c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-*s", width, r.Label)
		for _, v := range r.Cells {
			fmt.Fprintf(&b, "%14.4f", v)
		}
		b.WriteByte('\n')
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	return b.String()
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString("label")
	for _, c := range t.Columns {
		b.WriteByte(',')
		b.WriteString(c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		b.WriteString(r.Label)
		for _, v := range r.Cells {
			fmt.Fprintf(&b, ",%g", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// JSON renders the table as deterministic indented JSON: field order is
// fixed by the struct, rows keep their append order, and no timestamps or
// environment data are included — two identical runs produce identical
// bytes. This is the format pinned benchmark baselines (BENCH_0.json) are
// committed in.
func (t *Table) JSON() ([]byte, error) {
	out := struct {
		ID      string   `json:"id"`
		Title   string   `json:"title"`
		Columns []string `json:"columns"`
		Rows    []Row    `json:"rows"`
		Notes   []string `json:"notes,omitempty"`
	}{t.ID, t.Title, t.Columns, t.Rows, t.Notes}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Runner regenerates one table/figure.
type Runner func(Options) (*Table, error)

// entry is one registered experiment.
type entry struct {
	title  string
	runner Runner
}

var registry = map[string]entry{}

// register wires an experiment id to its runner; called from init().
func register(id, title string, r Runner) {
	if _, dup := registry[id]; dup {
		//proram:invariant duplicate registration is an init-time wiring mistake that must stop the binary
		panic("exp: duplicate experiment " + id)
	}
	registry[id] = entry{title, r}
}

// IDs returns every registered experiment id, sorted.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	// Map order is random: the keys are sorted below, and
	// TestRegistryComplete fails if they are not.
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Title returns an experiment's description.
func Title(id string) (string, bool) {
	e, ok := registry[id]
	return e.title, ok
}

// Run regenerates the identified table/figure.
func Run(id string, opt Options) (*Table, error) {
	e, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("exp: unknown experiment %q (have %s)", id, strings.Join(IDs(), ", "))
	}
	return e.runner(opt)
}

// ---- shared helpers ----

// speedup is the paper's metric: T_base/T_variant - 1.
func speedup(base, variant sim.Report) float64 {
	return float64(base.Cycles)/float64(variant.Cycles) - 1
}

// normAccesses is the paper's energy proxy: variant accesses normalized to
// the baseline.
func normAccesses(base, variant sim.Report) float64 {
	if base.MemoryAccesses == 0 {
		return 0
	}
	return float64(variant.MemoryAccesses) / float64(base.MemoryAccesses)
}

// normTime normalizes a variant's completion time to a baseline's.
func normTime(base, variant sim.Report) float64 {
	return float64(variant.Cycles) / float64(base.Cycles)
}

// baseORAM returns the Table 1 ORAM system configuration.
func baseORAM() sim.Config {
	return sim.DefaultConfig(sim.TechORAM)
}

// baseDRAM returns the insecure DRAM system configuration.
func baseDRAM() sim.Config {
	return sim.DefaultConfig(sim.TechDRAM)
}

// warmupFraction is the share of each workload executed unmeasured before
// the region of interest, matching the steady-state methodology of the
// paper's Graphite runs.
const warmupFraction = 0.4

// withWarmup sets the standard warmup for a workload of the given length.
func withWarmup(cfg sim.Config, ops uint64) sim.Config {
	cfg.WarmupOps = uint64(float64(ops) * warmupFraction)
	return cfg
}

// withScheme returns cfg with the given super block scheme installed.
func withScheme(cfg sim.Config, s superblock.Config) sim.Config {
	cfg.ORAM.Super = s
	return cfg
}

// dynScheme is PrORAM's default dynamic configuration.
func dynScheme() superblock.Config { return superblock.DefaultConfig() }

// statScheme is the prior static scheme at the given granularity.
func statScheme(size int) superblock.Config {
	return superblock.Config{Scheme: superblock.Static, MaxSize: size}
}

// runSim builds and runs one system on a fresh generator, attaching the
// options' recorder (if any) so every system an experiment builds shows up
// in the trace.
func runSim(opt Options, cfg sim.Config, g trace.Generator) (sim.Report, error) {
	cfg.Obs = opt.Obs
	s, err := sim.New(cfg)
	if err != nil {
		return sim.Report{}, err
	}
	return s.Run(g)
}

// runEach runs each configuration, with the standard warmup for a workload
// of ops operations, on a fresh generator from gf, in the order given (the
// order the systems appear in an -obs trace).
func runEach(opt Options, ops uint64, gf genFactory, cfgs ...sim.Config) ([]sim.Report, error) {
	reps := make([]sim.Report, len(cfgs))
	for i, cfg := range cfgs {
		rep, err := runSim(opt, withWarmup(cfg, ops), gf())
		if err != nil {
			return nil, fmt.Errorf("run %d of %d: %w", i+1, len(cfgs), err)
		}
		reps[i] = rep
	}
	return reps, nil
}

// addAverages appends an avg row: for each of the first k columns the
// mean over the rows so far, summed in row order, and zero in the columns
// after them. Row i is workload ws[i]'s; when any of ws is
// memory-intensive, a mem_avg row follows, the same over those rows alone.
func (t *Table) addAverages(k int, ws []workload) {
	rows := t.Rows
	mean := func(label string, keep func(i int) bool) {
		cells := make([]float64, len(t.Columns))
		n := 0
		for i, r := range rows {
			if keep(i) {
				for c := range k {
					cells[c] += r.Cells[c]
				}
				n++
			}
		}
		if n == 0 {
			return
		}
		for c := range k {
			cells[c] /= float64(n)
		}
		t.AddRow(label, cells...)
	}
	mean("avg", func(int) bool { return true })
	mean("mem_avg", func(i int) bool { return i < len(ws) && ws[i].mem })
}

// genFactory builds fresh generators for repeated runs of one workload.
type genFactory func() trace.Generator

// modelFactory adapts a benchmark profile.
func modelFactory(p trace.ModelParams) genFactory {
	return func() trace.Generator { return trace.NewModel(p) }
}

// workload is one benchmark of a suite: a row of the suite's figures.
type workload struct {
	name string
	ops  uint64
	gf   genFactory
	mem  bool // memory-intensive: counted in the mem_avg row
}

// models lists benchmark profiles as workloads, each seed offset by
// opt.Seed; mem, when non-nil, classifies them by name.
func models(opt Options, ps []trace.ModelParams, mem func(string) bool) []workload {
	ws := make([]workload, len(ps))
	for i, p := range ps {
		p.Seed += opt.Seed
		ws[i] = workload{p.Name, p.Ops, modelFactory(p), mem != nil && mem(p.Name)}
	}
	return ws
}

// splash2, spec06 and dbms are the paper's three suites at full size.
func splash2(opt Options) []workload {
	return models(opt, trace.Splash2(opt.scale(fig8Ops)), trace.Splash2MemoryIntensive)
}

func spec06(opt Options) []workload {
	return models(opt, trace.SPEC06(opt.scale(fig8Ops)), trace.SPEC06MemoryIntensive)
}

func dbms(opt Options) []workload {
	y := trace.DefaultYCSB(opt.scale(fig8Ops))
	y.Seed += opt.Seed
	ycsb := workload{"YCSB", y.Ops, func() trace.Generator { return trace.NewYCSB(y) }, true}
	return append([]workload{ycsb}, models(opt, []trace.ModelParams{trace.TPCC(opt.scale(fig8Ops))}, nil)...)
}

// splash2Named picks Splash2 benchmarks by name, in the order given.
func splash2Named(opt Options, names ...string) []workload {
	return models(opt, trace.ByName(trace.Splash2(opt.scale(fig8Ops)), names...), nil)
}
