package prefetch

import "testing"

func TestValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Config{Streams: 0, Degree: 1}).Validate(); err == nil {
		t.Fatal("zero streams accepted")
	}
	if err := (Config{Streams: 1, Degree: 0}).Validate(); err == nil {
		t.Fatal("zero degree accepted")
	}
}

func TestSequentialStreamConfirmed(t *testing.T) {
	p := New(Config{Streams: 4, Degree: 2})
	if got := p.OnMiss(10, nil); len(got) != 0 {
		t.Fatalf("first miss prefetched %v", got)
	}
	got := p.OnMiss(11, nil)
	if len(got) != 2 || got[0] != 12 || got[1] != 13 {
		t.Fatalf("confirmed stream prefetched %v, want [12 13]", got)
	}
	got = p.OnMiss(12, nil)
	if len(got) != 2 || got[0] != 13 {
		t.Fatalf("continuation prefetched %v", got)
	}
	if p.Issued() != 4 {
		t.Fatalf("Issued = %d", p.Issued())
	}
}

func TestRandomMissesNoPrefetch(t *testing.T) {
	p := New(Config{Streams: 4, Degree: 2})
	addrs := []uint64{100, 7, 950, 42, 500, 3}
	for _, a := range addrs {
		if got := p.OnMiss(a, nil); len(got) != 0 {
			t.Fatalf("random miss %d prefetched %v", a, got)
		}
	}
}

func TestMultipleStreams(t *testing.T) {
	p := New(Config{Streams: 4, Degree: 1})
	p.OnMiss(100, nil)
	p.OnMiss(200, nil)
	if got := p.OnMiss(101, nil); len(got) != 1 || got[0] != 102 {
		t.Fatalf("stream A: %v", got)
	}
	if got := p.OnMiss(201, nil); len(got) != 1 || got[0] != 202 {
		t.Fatalf("stream B: %v", got)
	}
}

func TestLRUReplacement(t *testing.T) {
	p := New(Config{Streams: 2, Degree: 1})
	p.OnMiss(100, nil) // stream expecting 101
	p.OnMiss(200, nil) // stream expecting 201
	p.OnMiss(300, nil) // evicts the 100-stream (LRU)
	if got := p.OnMiss(201, nil); len(got) != 1 {
		t.Fatalf("surviving stream dead: %v", got)
	}
	if got := p.OnMiss(101, nil); len(got) != 0 {
		t.Fatalf("evicted stream still live: %v", got)
	}
}

func TestAppendSemantics(t *testing.T) {
	p := New(Config{Streams: 2, Degree: 1})
	p.OnMiss(10, nil)
	base := []uint64{1}
	got := p.OnMiss(11, base)
	if len(got) != 2 || got[0] != 1 || got[1] != 12 {
		t.Fatalf("append semantics broken: %v", got)
	}
}

// OnMiss runs on every simulated LLC miss; appending into a buffer the
// caller reuses, it must not allocate, whether the miss confirms a stream
// and issues prefetches or replaces one.
func TestOnMissIntoReusedBufferDoesNotAllocate(t *testing.T) {
	p := New(DefaultConfig())
	buf := make([]uint64, 0, 64)
	var next uint64
	miss := func() {
		// Two sequential streams interleaved with a stray miss: the
		// sequential ones confirm and issue, the stray ones replace.
		for _, index := range []uint64{next, 1<<20 + next, 1<<40 + 7*next} {
			buf = p.OnMiss(index, buf[:0])
		}
		next++
	}
	if avg := testing.AllocsPerRun(1000, miss); avg != 0 {
		t.Fatalf("OnMiss allocates %.2f times per call", avg)
	}
	if p.Issued() == 0 {
		t.Fatal("no stream confirmed; the prefetch-issuing branch went unmeasured")
	}
}
