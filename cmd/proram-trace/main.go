// Command proram-trace inspects the workload generators: it streams a
// trace and reports its statistical profile (memory intensity, spatial
// locality, write fraction, footprint), optionally dumping raw operations.
//
// Usage:
//
//	proram-trace -workload ocean_c -ops 100000
//	proram-trace -workload synthetic -locality 0.8 -dump 20
package main

import (
	"flag"
	"fmt"
	"os"

	"proram"
)

func main() {
	var (
		workload = flag.String("workload", "synthetic", "workload name (see proram-sim)")
		ops      = flag.Uint64("ops", 200_000, "operations to generate")
		locality = flag.Float64("locality", 0.5, "synthetic: locality fraction")
		seed     = flag.Uint64("seed", 1, "generator seed")
		dump     = flag.Int("dump", 0, "print the first N raw operations")
	)
	flag.Parse()

	w, err := pickWorkload(*workload, *ops, *locality, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "proram-trace:", err)
		os.Exit(1)
	}
	profile(w, *dump)
}

func pickWorkload(name string, ops uint64, locality float64, seed uint64) (proram.Workload, error) {
	if name == "synthetic" {
		return proram.Synthetic(proram.SyntheticConfig{
			Ops: ops, LocalityFraction: locality, WriteFraction: 0.25, Seed: seed,
		})
	}
	return proram.NamedWorkload(name, ops)
}

func profile(w proram.Workload, dump int) {
	const stride = 64
	const block = 128
	var (
		n, writes, seq  uint64
		gaps            uint64
		prevAddr        uint64
		prevValid       bool
		minAddr         = ^uint64(0)
		maxAddr         uint64
		blocks          = map[uint64]struct{}{}
		blockTransition uint64
	)
	w.ForEach(func(op proram.Op) {
		n++
		gaps += uint64(op.Gap)
		if op.Write {
			writes++
		}
		if prevValid && op.Addr == prevAddr+stride {
			seq++
		}
		if prevValid && op.Addr/block == prevAddr/block+1 {
			blockTransition++
		}
		prevAddr, prevValid = op.Addr, true
		if op.Addr < minAddr {
			minAddr = op.Addr
		}
		if op.Addr > maxAddr {
			maxAddr = op.Addr
		}
		blocks[op.Addr/block] = struct{}{}
		if dump > 0 {
			fmt.Printf("op %8d  addr %10d  gap %3d  write %v\n", n, op.Addr, op.Gap, op.Write)
			dump--
		}
	})
	fmt.Printf("workload            %s\n", w.Name)
	fmt.Printf("operations          %d\n", n)
	fmt.Printf("mean compute gap    %.2f cycles\n", float64(gaps)/float64(n))
	fmt.Printf("write fraction      %.3f\n", float64(writes)/float64(n))
	fmt.Printf("stride sequentiality %.3f\n", float64(seq)/float64(n))
	fmt.Printf("neighbor-block rate %.3f\n", float64(blockTransition)/float64(n))
	fmt.Printf("address range       [%d, %d] (%.2f MB)\n", minAddr, maxAddr, float64(maxAddr-minAddr)/(1<<20))
	fmt.Printf("distinct blocks     %d (%.2f MB footprint)\n", len(blocks), float64(len(blocks)*block)/(1<<20))
}
