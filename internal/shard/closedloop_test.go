//go:build unix

package shard

import (
	"sync"
	"syscall"
	"testing"
	"time"

	"proram/internal/rng"
)

// BenchmarkClosedLoop drives a two-partition frontend with two closed-loop
// clients, each issuing its next request as soon as the last returns:
// Zipf-skewed (0.99) over the 2^12 blocks with the ranks scattered by an
// odd multiplier, half of them writes. Besides ns/op it reports rounds and
// path accesses per op, cpu-ns/op, the process's user plus system time
// over the timed loop (what the workers' spin between rounds costs), and
// allocations per op. Run it at -cpu 1,2.
func BenchmarkClosedLoop(b *testing.B) {
	cfg := testConfig(2)
	f, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	type client struct {
		zipf *rng.Zipf
		rnd  *rng.Source
	}
	clients := make([]client, 2)
	for c := range clients {
		r := rng.New(uint64(100 + c))
		clients[c] = client{zipf: rng.NewZipf(r.Fork(), cfg.Blocks, 0.99), rnd: r}
	}
	payload := make([]byte, cfg.BlockBytes)
	drive := func(ops int) {
		var wg sync.WaitGroup
		for c, cl := range clients {
			n := ops / len(clients)
			if c == 0 {
				n += ops % len(clients)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range n {
					// An odd multiplier permutes [0, 2^12), so hot ranks land
					// on scattered blocks and both partitions.
					idx := cl.zipf.Next() * 0x9e3779b97f4a7c15 % cfg.Blocks
					var err error
					if cl.rnd.Bool() {
						err = f.Write(idx, payload)
					} else {
						_, err = f.Read(idx)
					}
					if err != nil {
						b.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	drive(4096)
	before := f.Stats()
	cpu := cpuTime(b)
	b.ReportAllocs()
	b.ResetTimer()
	drive(b.N)
	b.StopTimer()
	cpu = cpuTime(b) - cpu
	// Close commits the last round, so the snapshot covers every op.
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	after := f.Stats()
	n := float64(b.N)
	b.ReportMetric(float64(after.Rounds-before.Rounds)/n, "rounds/op")
	b.ReportMetric(float64(after.PathAccesses()-before.PathAccesses())/n, "paths/op")
	b.ReportMetric(float64(cpu.Nanoseconds())/n, "cpu-ns/op")
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
