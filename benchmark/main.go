// Command benchmark is the repository's performance benchmark: five
// workloads over the oblivious-RAM library and the simulator, end-to-end
// metrics with tracing off, and a separate traced run that attributes host
// time to each layer of the ORAM access path. README.md in this directory
// has the tables; BENCHMARK.json at the root of the repository is the
// contract the driver runs it under.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

// options are the knobs of one run.
type options struct {
	seed     uint64
	seconds  float64
	traced   bool
	traceOut string
	// corruptOracle flips one oracle byte before the first timed window.
	// Only the tests set it.
	corruptOracle bool
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (default: all five in turn)")
	seed := fs.Uint64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 10, "length of the timed phase of an untraced run")
	traced := fs.Int("trace", 0, "0: tracing off, end-to-end metrics; 1: traced run, per-layer metrics")
	traceOut := fs.String("trace-out", "", "with -trace 1: write the seam-trace spans to this file (Chrome trace-event JSON)")
	out := fs.String("out", "", "append one JSON result per run to this file (the input of -compare)")
	compare := fs.Bool("compare", false, "compare two result files: -compare BASE.json NEW.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare BASE.json NEW.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || *traced < 0 || *traced > 1 || *seconds < 0 {
		fmt.Fprintln(stderr, "usage: benchmark [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-trace-out FILE] [-out FILE]")
		return 2
	}
	todo := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "unknown workload %q\n", *name)
			return 2
		}
		todo = []workload{w}
	}
	o := options{seed: *seed, seconds: *seconds, traced: *traced == 1, traceOut: *traceOut}
	return runAll(todo, fullSizes(), o, *out, stdout, stderr)
}

// runAll runs the workloads in turn. Each prints its table and then, as
// the last line, the one-object summary the driver reads. The exit code is
// 1 when any operation or end-of-run check failed.
func runAll(todo []workload, sz sizes, o options, out string, stdout, stderr io.Writer) int {
	code := 0
	for _, w := range todo {
		res, err := runWorkload(w, sz, o)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", w.name, err)
			return 1
		}
		if res.Failed > 0 {
			code = 1
		}
		res.print(stdout)
		if out != "" {
			if err := appendResult(out, res); err != nil {
				fmt.Fprintf(stderr, "%s: %v\n", out, err)
				return 1
			}
		}
		line, err := res.contractLine()
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", w.name, err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return code
}

// runWorkload runs one workload once, untraced or traced.
func runWorkload(w workload, sz sizes, o options) (*result, error) {
	if n := sz.windowOps[w.name]; n <= 0 || n%(chunkOps*w.clients) != 0 {
		return nil, fmt.Errorf("window of %d ops is not a positive multiple of %d", n, chunkOps*w.clients)
	}
	var res *result
	var err error
	switch {
	case o.traced:
		res, err = runTraced(w, sz, o)
	case w.kind == kindSim:
		res, err = runSim(w, sz, o)
	default:
		res, err = runLibrary(w, sz, o)
	}
	if err != nil {
		return nil, err
	}
	res.complete()
	return res, nil
}

// appendResult adds one JSON line to a result file.
func appendResult(path string, res *result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
