// Command proram-sim runs a single memory-system simulation and prints a
// detailed report.
//
// Usage:
//
//	proram-sim -workload ocean_c -scheme dynamic
//	proram-sim -workload synthetic -locality 0.8 -ops 500000 -memory dram
//	proram-sim -workload ycsb -scheme static -z 4 -stash 50
//	proram-sim -workload ycsb -partitions 8 -clients 16
//	proram-sim -workload ycsb -partitions 4 -audit -audit-out audit.json
//	proram-sim -workload ycsb -partitions 4 -metrics-out m.json -trace-out t.json
//	proram-sim -workload ocean_c -scheme dynamic -explain
//
// With -partitions > 1 the workload is replayed through the partitioned
// frontend's closed-loop scheduler (see internal/shard) instead of the
// core timing model: the report shows rounds, padding and the makespan.
// The observability and audit flags, -z and -stash apply to both modes;
// -periodic, -oint, -stream and -warmup belong to the unified controller
// and the core model, and are refused with -partitions > 1; -clients and
// -round-slots belong to the scheduler, and are refused without it.
//
// With -audit the obliviousness auditor (internal/obs/audit) taps the
// physical access stream and the process exits nonzero when any
// statistical leak test fails.
//
// With -explain the report ends with a table of where the ORAM's work
// went: path accesses and busy cycles per cause (demand data, position-map
// walk, LLC write-back, background eviction, periodic dummy), read from the
// run's own metrics dump.
//
// Workloads: synthetic, ycsb, tpcc, or any Splash2/SPEC06 benchmark name
// (water_ns ... ocean_nc, h264 ... mcf).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"proram"
)

func main() {
	var (
		workload = flag.String("workload", "synthetic", "workload name")
		ops      = flag.Uint64("ops", 400_000, "memory operations to simulate")
		locality = flag.Float64("locality", 0.5, "synthetic: fraction of data with locality")
		memory   = flag.String("memory", "oram", "memory technology: oram or dram")
		scheme   = flag.String("scheme", "none", "prefetch scheme: none, static, dynamic")
		maxSB    = flag.Int("sbsize", 2, "maximum super block size")
		stream   = flag.Bool("stream", false, "enable the traditional stream prefetcher")
		z        = flag.Int("z", 0, "ORAM bucket size Z (0 = default 3)")
		stash    = flag.Int("stash", 0, "stash capacity in blocks (0 = default 100)")
		periodic = flag.Bool("periodic", false, "periodic (timing-protected) ORAM accesses")
		oint     = flag.Uint64("oint", 0, "periodic access interval in cycles (0 = default)")
		warmup   = flag.Uint64("warmup", 0, "unmeasured warmup operations")
		seed     = flag.Uint64("seed", 1, "workload / ORAM seed")
		dramMod  = flag.String("dram", "flat", "DRAM timing model behind the ORAM: flat, banked, or packed (banked + subtree-packed layout)")

		parts   = flag.Int("partitions", 1, "split the address space across this many independent ORAM partitions (>1 runs the sharded scheduler)")
		clients = flag.Int("clients", 8, "sharded: closed-loop concurrent clients admitted per scheduling round")
		slots   = flag.Int("round-slots", 0, "sharded: fixed ORAM accesses per partition per round (0 = default)")

		auditOn  = flag.Bool("audit", false, "run the obliviousness auditor over the simulated access stream; a failed audit exits nonzero")
		auditOut = flag.String("audit-out", "", "write the full audit report as deterministic JSON to this file (implies -audit)")

		obsOn       = flag.Bool("obs", false, "enable observability (metrics, time series, flight recorder)")
		traceOut    = flag.String("trace-out", "", "write a Chrome trace-event JSON file (implies -obs; load in chrome://tracing or Perfetto)")
		metricsOut  = flag.String("metrics-out", "", "write the deterministic metrics JSON dump to this file (implies -obs)")
		sampleEvery = flag.Uint64("sample-every", 50_000, "simulated cycles between time-series samples")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof and expvar on this address (e.g. localhost:6060)")
		explain     = flag.Bool("explain", false, "print the ORAM's path accesses and busy cycles by cause (implies -obs; unified controller only)")
	)
	flag.Parse()
	set := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := checkPartitions(set, *parts); err != nil {
		fatal(err)
	}
	if *pprofAddr != "" {
		servePprof(*pprofAddr)
	}

	w, err := pickWorkload(*workload, *ops, *locality, *seed)
	if err != nil {
		fatal(err)
	}
	dram, err := pickDRAM(*dramMod)
	if err != nil {
		fatal(err)
	}
	ac, err := pickAudit(*auditOn, *auditOut)
	if err != nil {
		fatal(err)
	}
	ob, err := pickObs(*obsOn || *explain, *traceOut, *metricsOut, *sampleEvery)
	if err != nil {
		fatal(err)
	}
	if *explain {
		if *parts > 1 || *memory != "oram" {
			fatal(fmt.Errorf("-explain needs -memory oram and one partition: only the unified controller exports per-cause counters"))
		}
		ob.tapMetrics()
	}
	sch, err := pickScheme(*scheme)
	if err != nil {
		fatal(err)
	}
	if *parts > 1 {
		if *memory != "oram" {
			fatal(fmt.Errorf("-partitions needs -memory oram"))
		}
		cfg, err := shardedConfig(set, *parts, *slots, *z, *stash, sch, *maxSB, *seed, dram)
		if err != nil {
			fatal(err)
		}
		runSharded(w, cfg, *clients, ob, ac)
		return
	}
	cfg := proram.SimConfig{
		Scheme:           sch,
		MaxSuperBlock:    *maxSB,
		StreamPrefetcher: *stream,
		Z:                *z,
		StashBlocks:      *stash,
		Periodic:         *periodic,
		Oint:             *oint,
		WarmupOps:        *warmup,
		Seed:             *seed,
		DRAM:             dram,
		Obs:              ob.cfg,
	}
	switch *memory {
	case "oram":
		cfg.Memory = proram.MemoryORAM
	case "dram":
		cfg.Memory = proram.MemoryDRAM
	default:
		fatal(fmt.Errorf("unknown memory %q", *memory))
	}

	if ac != nil {
		cfg.Audit = ac.cfg
	}

	s, err := proram.NewSimulator(cfg)
	if err != nil {
		fatal(err)
	}
	res, err := s.Run(w)
	if err != nil {
		fatal(err)
	}
	if err := s.CloseObs(); err != nil {
		fatal(err)
	}
	ob.finish()

	fmt.Printf("workload         %s (%d ops)\n", w.Name, w.Ops)
	fmt.Printf("memory           %s, scheme %s\n", *memory, *scheme)
	fmt.Printf("cycles           %d\n", res.Cycles)
	fmt.Printf("llc misses       %d\n", res.LLCMisses)
	fmt.Printf("memory accesses  %d\n", res.MemoryAccesses)
	if cfg.Memory == proram.MemoryORAM {
		o := res.ORAM
		fmt.Printf("oram reads/writes    %d / %d\n", o.Reads, o.Writes)
		fmt.Printf("path accesses        %d\n", o.PathAccesses)
		fmt.Printf("background evictions %d\n", o.BackgroundEvictions)
		fmt.Printf("periodic dummies     %d\n", o.DummyAccesses)
		fmt.Printf("merges / breaks      %d / %d\n", o.Merges, o.Breaks)
		fmt.Printf("prefetch issued      %d (hits %d, unused %d, miss rate %.3f)\n",
			o.PrefetchIssued, o.PrefetchHits, o.PrefetchUnused, o.PrefetchMissRate())
		fmt.Printf("stash high water     %d\n", o.StashHighWater)
	}
	if *stream {
		fmt.Printf("stream prefetches    %d (hits %d)\n", res.StreamIssued, res.StreamHits)
	}
	if *explain {
		if err := printExplain(os.Stdout, ob.metrics.Bytes()); err != nil {
			fatal(err)
		}
	}
	ac.finish(res.Audit)
}

// obsFlags holds the observability configuration the flags asked for (nil
// when they asked for none) and the output files to close once the run has
// finalized them. Both run modes share it.
type obsFlags struct {
	cfg     *proram.ObsConfig
	files   []*os.File
	metrics bytes.Buffer // the metrics dump, kept for -explain (tapMetrics)
}

// tapMetrics keeps a copy of the metrics dump in o.metrics, beside the file
// -metrics-out asked for, if any.
func (o *obsFlags) tapMetrics() {
	if o.cfg.MetricsOut == nil {
		o.cfg.MetricsOut = &o.metrics
		return
	}
	o.cfg.MetricsOut = io.MultiWriter(o.cfg.MetricsOut, &o.metrics)
}

// printExplain prints, from a metrics dump, the controller's path accesses
// and busy cycles per cause: the oram.paths.* and oram.cycles.* counters,
// in export order, with each one's share of the total. The counters cover
// the whole run, warmup included.
func printExplain(w io.Writer, dump []byte) error {
	var m struct {
		Counters []struct {
			Name  string `json:"name"`
			Value uint64 `json:"value"`
		} `json:"counters"`
	}
	if err := json.Unmarshal(dump, &m); err != nil {
		return fmt.Errorf("-explain: metrics dump: %w", err)
	}
	var kinds []string
	paths, cycles := map[string]uint64{}, map[string]uint64{}
	var totalPaths, totalCycles uint64
	for _, c := range m.Counters {
		if kind, ok := strings.CutPrefix(c.Name, "oram.paths."); ok {
			kinds = append(kinds, kind)
			paths[kind] = c.Value
			totalPaths += c.Value
		} else if kind, ok := strings.CutPrefix(c.Name, "oram.cycles."); ok {
			cycles[kind] = c.Value
			totalCycles += c.Value
		}
	}
	share := func(part, whole uint64) float64 {
		if whole == 0 {
			return 0
		}
		return float64(part) / float64(whole)
	}
	fmt.Fprintf(w, "\n%-12s %12s %7s %16s %7s\n", "cause", "paths", "share", "busy cycles", "share")
	for _, k := range kinds {
		fmt.Fprintf(w, "%-12s %12d %7.3f %16d %7.3f\n", k, paths[k], share(paths[k], totalPaths), cycles[k], share(cycles[k], totalCycles))
	}
	fmt.Fprintf(w, "%-12s %12d %7.3f %16d %7.3f\n", "total", totalPaths, 1.0, totalCycles, 1.0)
	return nil
}

// pickObs maps -obs/-trace-out/-metrics-out/-sample-every to an
// observability configuration.
func pickObs(on bool, traceOut, metricsOut string, sampleEvery uint64) (*obsFlags, error) {
	o := &obsFlags{}
	if !on && traceOut == "" && metricsOut == "" {
		return o, nil
	}
	o.cfg = &proram.ObsConfig{SampleEvery: sampleEvery, FlightOut: os.Stderr}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return nil, err
		}
		o.cfg.TraceOut = f
		o.files = append(o.files, f)
	}
	if metricsOut != "" {
		f, err := os.Create(metricsOut)
		if err != nil {
			return nil, err
		}
		o.cfg.MetricsOut = f
		o.files = append(o.files, f)
	}
	return o, nil
}

// finish closes the output files; the run has written them by now.
func (o *obsFlags) finish() {
	for _, f := range o.files {
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "# wrote %s\n", f.Name())
	}
}

// auditFlags holds the audit configuration the flags armed, plus the
// report file to flush at exit.
type auditFlags struct {
	cfg  *proram.AuditConfig
	file *os.File
}

// pickAudit maps the -audit/-audit-out flags to an audit configuration;
// nil means the auditor stays off.
func pickAudit(on bool, out string) (*auditFlags, error) {
	if !on && out == "" {
		return nil, nil
	}
	a := &auditFlags{cfg: &proram.AuditConfig{}}
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return nil, err
		}
		a.cfg.Out = f
		a.file = f
	}
	return a, nil
}

// finish flushes the report file, prints the verdict, and exits nonzero
// on a failed audit — the exit path CI's negative controls assert on.
func (a *auditFlags) finish(rep *proram.AuditReport) {
	if a == nil {
		return
	}
	if a.file != nil {
		if err := a.file.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "# wrote %s\n", a.file.Name())
	}
	if rep == nil {
		fatal(fmt.Errorf("audit armed but no report produced"))
	}
	if rep.Pass {
		fmt.Printf("audit            pass (%d accesses)\n", rep.Accesses)
		return
	}
	fmt.Printf("audit            FAIL (%d accesses)\n", rep.Accesses)
	for _, f := range rep.Findings {
		fmt.Printf("  %s\n", f)
	}
	os.Exit(1)
}

// pickScheme maps the -scheme flag to a prefetch scheme.
func pickScheme(name string) (proram.Scheme, error) {
	switch name {
	case "none":
		return proram.SchemeNone, nil
	case "static":
		return proram.SchemeStatic, nil
	case "dynamic":
		return proram.SchemeDynamic, nil
	}
	return 0, fmt.Errorf("unknown scheme %q", name)
}

// unifiedOnly lists the flags the sharded frontend has no counterpart for:
// the core timing model's stream prefetcher and warmup, and the unified
// controller's periodic schedule.
var unifiedOnly = []string{"periodic", "oint", "stream", "warmup"}

// shardedOnly lists the flags only the sharded frontend reads.
var shardedOnly = []string{"clients", "round-slots"}

// checkPartitions refuses a partition count below one and, on a unified
// run (-partitions 1), any sharded-only flag among set, the flags given on
// the command line.
func checkPartitions(set map[string]bool, parts int) error {
	if parts < 1 {
		return fmt.Errorf("-partitions %d: need at least 1", parts)
	}
	if parts > 1 {
		return nil
	}
	for _, name := range shardedOnly {
		if set[name] {
			return fmt.Errorf("-%s applies to the sharded frontend only; it has no effect without -partitions > 1", name)
		}
	}
	return nil
}

// shardedConfig maps the flags to the sharded frontend's configuration.
// set names the flags given on the command line: a unified-only one among
// them is refused rather than silently ignored.
func shardedConfig(set map[string]bool, parts, slots, z, stash int, scheme proram.Scheme, maxSB int, seed uint64, dram proram.DRAMModel) (proram.Config, error) {
	for _, name := range unifiedOnly {
		if set[name] {
			return proram.Config{}, fmt.Errorf("-%s applies to the unified controller only; it has no effect with -partitions > 1", name)
		}
	}
	cfg := proram.DefaultConfig()
	cfg.Partitions = parts
	cfg.RoundSlots = slots
	cfg.Scheme = scheme
	cfg.MaxSuperBlock = maxSB
	cfg.Z = z
	cfg.StashBlocks = stash
	cfg.Seed = seed
	cfg.DRAM = dram
	return cfg, nil
}

// runSharded replays the workload through the partitioned frontend's
// deterministic closed-loop scheduler and prints its report.
func runSharded(w proram.Workload, cfg proram.Config, clients int, ob *obsFlags, ac *auditFlags) {
	opt := proram.ShardedOptions{Obs: ob.cfg}
	if ac != nil {
		opt.Audit = ac.cfg
	}
	rep, err := proram.SimulateSharded(cfg, w, clients, opt)
	if err != nil {
		fatal(err)
	}
	ob.finish()
	s := rep.Sched
	fmt.Printf("workload         %s (%d ops)\n", w.Name, rep.Ops)
	fmt.Printf("memory           oram, scheme %s, %d partitions, %d clients\n", cfg.Scheme, cfg.Partitions, clients)
	fmt.Printf("cycles           %d (slowest partition's clock)\n", s.Cycles)
	fmt.Printf("rounds               %d × %d slots per partition\n", s.Rounds, s.RoundSlots)
	fmt.Printf("path accesses        %d\n", rep.PathAccesses)
	fmt.Printf("real / pad accesses  %d / %d (fill %.3f)\n", s.RealAccesses, s.PadAccesses, s.FillRatio)
	fmt.Printf("pad-slot write-backs %d (of the real accesses)\n", s.PadWritebacks)
	fmt.Printf("cache hits           %d\n", s.CacheHits)
	fmt.Printf("carryovers           %d\n", s.Carryovers)
	ac.finish(rep.Audit)
}

// pickDRAM maps the -dram flag to a DRAM model; flat is Table 1's channel.
func pickDRAM(name string) (proram.DRAMModel, error) {
	switch name {
	case "flat", "":
		return proram.DRAMFlat, nil
	case "banked":
		return proram.DRAMBanked, nil
	case "packed":
		return proram.DRAMBankedPacked, nil
	default:
		return 0, fmt.Errorf("unknown dram model %q (flat, banked, packed)", name)
	}
}

func pickWorkload(name string, ops uint64, locality float64, seed uint64) (proram.Workload, error) {
	if name == "synthetic" {
		return proram.Synthetic(proram.SyntheticConfig{
			Ops: ops, LocalityFraction: locality, WriteFraction: 0.25, Seed: seed,
		})
	}
	return proram.NamedWorkload(name, ops)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "proram-sim:", err)
	os.Exit(1)
}
