package banked

import (
	"bytes"
	"math"
	"testing"

	"proram/internal/dram"
	"proram/internal/rng"
)

// testCfg is a small geometry with easy arithmetic: 2 channels × 2 banks,
// 4 KB rows, 16 B/cycle per channel, tRCD=tCAS=tRP=10.
func testCfg() Config {
	return Config{
		Channels:      2,
		Ranks:         1,
		Banks:         2,
		RowBytes:      4096,
		StripeBytes:   4096,
		BandwidthGBps: 16,
		ClockGHz:      1,
		TRCD:          10,
		TCAS:          10,
		TRP:           10,
		Layout:        LayoutSubtreePacked,
	}
}

// Address helpers for testCfg: stripe = addr/4096 alternates channels;
// within a channel consecutive 4 KB rows alternate the two banks.
const (
	addrC0B0R0 = 0     // channel 0, bank 0, row 0
	addrC0B1R0 = 8192  // channel 0, bank 1, row 0
	addrC1B0R0 = 4096  // channel 1, bank 2, row 0
	addrC0B0R1 = 16384 // channel 0, bank 0, row 1
)

func TestDecompose(t *testing.T) {
	m := New(testCfg())
	cases := []struct {
		addr   uint64
		ch, gb int
		row    uint64
	}{
		{addrC0B0R0, 0, 0, 0},
		{addrC0B1R0, 0, 1, 0},
		{addrC1B0R0, 1, 2, 0},
		{addrC0B0R1, 0, 0, 1},
		{addrC0B0R0 + 64, 0, 0, 0},
	}
	for _, c := range cases {
		ch, gb, row := m.decompose(c.addr)
		if ch != c.ch || gb != c.gb || row != c.row {
			t.Errorf("decompose(%d) = ch%d gb%d row%d, want ch%d gb%d row%d",
				c.addr, ch, gb, row, c.ch, c.gb, c.row)
		}
	}
}

// decomposeByDivision is decompose written with a division per quotient
// and remainder, the form the shift-and-multiply one must reproduce.
func decomposeByDivision(cfg Config, addr uint64) (ch int, gb int, row uint64) {
	stripeBytes, channels := uint64(cfg.StripeBytes), uint64(cfg.Channels)
	bpc := uint64(cfg.Ranks * cfg.Banks)
	stripe := addr / stripeBytes
	ch = int(stripe % channels)
	inChan := (stripe/channels)*stripeBytes + addr%stripeBytes
	crow := inChan / uint64(cfg.RowBytes)
	return ch, ch*int(bpc) + int(crow%bpc), crow / bpc
}

func TestDecomposeMatchesDivision(t *testing.T) {
	cases := []struct{ channels, ranks, banks, rowBytes, stripeBytes int }{
		{2, 1, 8, 4096, 4096},
		{3, 1, 6, 4096, 4096},
		{3, 2, 3, 2048, 512},
		{1, 1, 1, 64, 64},
		{5, 1, 7, 256, 8192},
		{64, 4, 6, 1 << 30, 64},
	}
	for _, c := range cases {
		cfg := DefaultConfig()
		cfg.Channels, cfg.Ranks, cfg.Banks = c.channels, c.ranks, c.banks
		cfg.RowBytes, cfg.StripeBytes = c.rowBytes, c.stripeBytes
		m := New(cfg)
		r := rng.New(uint64(c.channels*100 + c.banks))
		addrs := []uint64{0, 1, 63, 64, uint64(c.stripeBytes) - 1, uint64(c.stripeBytes), 1<<40 + 12345, math.MaxUint64}
		for range 2000 {
			addrs = append(addrs, r.Uint64n(1<<36), r.Uint64())
		}
		for _, addr := range addrs {
			ch, gb, row := m.decompose(addr)
			wch, wgb, wrow := decomposeByDivision(cfg, addr)
			if ch != wch || gb != wgb || row != wrow {
				t.Fatalf("%+v: decompose(%#x) = ch%d gb%d row%d, division gives ch%d gb%d row%d",
					c, addr, ch, gb, row, wch, wgb, wrow)
			}
		}
	}
}

// Satellite (a): two accesses to the same bank serialize on the bank; the
// same pair across different banks overlaps activation, and across
// different channels overlaps entirely.
func TestSameBankVsDifferentBanks(t *testing.T) {
	// Same bank, different rows: second access waits for the bank AND pays
	// a row conflict. miss = tRCD+tCAS = 20, transfer = 64/16 = 4.
	m := New(testCfg())
	if got := m.Access(0, addrC0B0R0, 64, false); got != 24 {
		t.Fatalf("first access done = %d, want 24", got)
	}
	// start = bankUntil = 24, conflict = 30, done = 24+30+4 = 58.
	if got := m.Access(0, addrC0B0R1, 64, false); got != 58 {
		t.Errorf("same-bank conflict done = %d, want 58", got)
	}

	// Different banks, same channel: activations overlap, the shared bus
	// serializes only the transfers: done = max(0+20, bus 24) + 4 = 28.
	m = New(testCfg())
	m.Access(0, addrC0B0R0, 64, false)
	if got := m.Access(0, addrC0B1R0, 64, false); got != 28 {
		t.Errorf("different-bank done = %d, want 28", got)
	}

	// Different channels: fully parallel, both finish at 24.
	m = New(testCfg())
	m.Access(0, addrC0B0R0, 64, false)
	if got := m.Access(0, addrC1B0R0, 64, false); got != 24 {
		t.Errorf("different-channel done = %d, want 24", got)
	}
}

// Satellite (b): a row hit pays tCAS only; a conflict pays tRP+tRCD+tCAS.
func TestRowHitVsConflict(t *testing.T) {
	m := New(testCfg())
	m.Access(0, addrC0B0R0, 64, false) // miss, opens row 0, done 24
	// Hit in the open row, issued after the bank freed: 30+10+4 = 44.
	if got := m.Access(30, addrC0B0R0+64, 64, false); got != 44 {
		t.Errorf("row-hit done = %d, want 44", got)
	}
	// Conflict in the same bank: 44+30+4 = 78.
	if got := m.Access(30, addrC0B0R1, 64, false); got != 78 {
		t.Errorf("row-conflict done = %d, want 78", got)
	}
	st := m.Stats()
	if st.RowHits != 1 || st.RowMisses != 1 || st.RowConflicts != 1 {
		t.Errorf("outcomes = %d/%d/%d hits/misses/conflicts, want 1/1/1",
			st.RowHits, st.RowMisses, st.RowConflicts)
	}
	// The per-channel occupancy the obs views export sums to the total.
	var busy uint64
	for _, b := range m.ChannelBusy() {
		busy += b
	}
	if busy != st.BusyCycles || busy != 12 {
		t.Errorf("channel busy sums to %d, stats say %d, want 12", busy, st.BusyCycles)
	}
}

// Satellite (c): a whole-path schedule on a 2-channel banked device beats
// the flat model's fully serialized BulkTransfer for the same path.
func TestOverlappedPathBeatsBulkTransfer(t *testing.T) {
	const (
		levels     = 10
		z          = 4
		blockBytes = 64
		crypto     = 21
	)
	bucketBytes := uint64(z * blockBytes)
	pathBytes := uint64(levels+1) * bucketBytes

	flat := dram.New(dram.DefaultConfig())
	flatDone := flat.BulkTransfer(0, 2*pathBytes, flat.Config().LatencyCycles+crypto)

	dev, err := NewDevice(testCfg(), levels, z, blockBytes, crypto)
	if err != nil {
		t.Fatal(err)
	}
	pt := dev.Path(0, 123)
	if pt.ReadDone >= pt.DataReady || pt.DataReady > pt.Done {
		t.Fatalf("phase order violated: %+v", pt)
	}
	if pt.Done >= flatDone {
		t.Errorf("banked path done = %d, not faster than flat BulkTransfer %d", pt.Done, flatDone)
	}
	if pt.DataReady >= flatDone {
		t.Errorf("banked data ready = %d, not faster than flat BulkTransfer %d", pt.DataReady, flatDone)
	}
}

// Satellite (d): the same access sequence produces a byte-identical
// per-access timing log on independently constructed models.
func TestTimingLogDeterminism(t *testing.T) {
	run := func() []byte {
		dev, err := NewDevice(testCfg(), 12, 4, 64, 21)
		if err != nil {
			t.Fatal(err)
		}
		dev.Model().EnableLog()
		seed := uint64(0x9e3779b97f4a7c15)
		now := uint64(0)
		for i := 0; i < 200; i++ {
			seed = seed*6364136223846793005 + 1442695040888963407
			leaf := (seed >> 33) % (1 << 12)
			pt := dev.Path(now, leaf)
			now = pt.DataReady
		}
		return dev.Model().LogBytes()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("empty timing log")
	}
	if !bytes.Equal(a, b) {
		t.Errorf("timing logs differ: %d vs %d bytes", len(a), len(b))
	}
}

// The subtree-packed layout assigns every bucket a disjoint address range
// inside the tree's span, and packs parent/child buckets of one subtree
// into the same row.
func TestTreeMapPackedAddresses(t *testing.T) {
	cfg := testCfg()
	cfg.RowBytes = 1024
	cfg.StripeBytes = 1024
	const levels, z, blockBytes = 6, 4, 64 // 256 B buckets, k=2
	tm, err := NewTreeMap(cfg, levels, z, blockBytes, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tm.SubtreeDepth() != 2 {
		t.Fatalf("subtree depth = %d, want 2", tm.SubtreeDepth())
	}
	bb := tm.BucketBytes()
	seen := make(map[uint64]uint64) // start -> node
	for node := uint64(1); node < 1<<(levels+1); node++ {
		a := tm.Addr(node)
		if a+bb > tm.SpanBytes() {
			t.Fatalf("node %d at %d overruns span %d", node, a, tm.SpanBytes())
		}
		if a%bb != 0 {
			t.Fatalf("node %d address %d not bucket-aligned", node, a)
		}
		for s, n := range seen {
			if a < s+bb && s < a+bb {
				t.Fatalf("node %d at %d overlaps node %d at %d", node, a, n, s)
			}
		}
		seen[a] = node
	}
	// Depth-4 node 16 and its children 32,33 form one subtree: same row.
	row := func(a uint64) uint64 { return a / uint64(cfg.RowBytes) }
	if row(tm.Addr(16)) != row(tm.Addr(32)) || row(tm.Addr(16)) != row(tm.Addr(33)) {
		t.Errorf("subtree {16,32,33} spans rows %d,%d,%d, want one row",
			row(tm.Addr(16)), row(tm.Addr(32)), row(tm.Addr(33)))
	}
	// Hot top-of-tree buckets (depth < k) each own a distinct row.
	if row(tm.Addr(1)) == row(tm.Addr(2)) || row(tm.Addr(2)) == row(tm.Addr(3)) {
		t.Errorf("top buckets share rows: %d,%d,%d",
			row(tm.Addr(1)), row(tm.Addr(2)), row(tm.Addr(3)))
	}
}

func TestTreeMapLinearAddresses(t *testing.T) {
	cfg := testCfg()
	cfg.Layout = LayoutLinear
	tm, err := NewTreeMap(cfg, 8, 4, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := tm.Addr(1); got != 0 {
		t.Errorf("root at %d, want 0", got)
	}
	if got := tm.Addr(5); got != 4*256 {
		t.Errorf("node 5 at %d, want %d", got, 4*256)
	}
}

func TestTreeMapRejectsMisalignedBase(t *testing.T) {
	if _, err := NewTreeMap(testCfg(), 8, 4, 64, 4096); err == nil {
		t.Error("misaligned base accepted")
	}
}

// The packed layout must actually earn row hits: on the same device
// geometry, a stream of paths sees a strictly higher row-hit rate and a
// strictly earlier finish than the linear layout.
func TestPackedLayoutBeatsLinear(t *testing.T) {
	run := func(layout Layout) (Stats, uint64) {
		cfg := testCfg()
		cfg.Layout = layout
		dev, err := NewDevice(cfg, 14, 4, 64, 21)
		if err != nil {
			t.Fatal(err)
		}
		seed := uint64(1)
		now := uint64(0)
		for i := 0; i < 300; i++ {
			seed = seed*6364136223846793005 + 1442695040888963407
			pt := dev.Path(now, (seed>>33)%(1<<14))
			now = pt.DataReady
		}
		return dev.Model().Stats(), now
	}
	linStats, linEnd := run(LayoutLinear)
	pkStats, pkEnd := run(LayoutSubtreePacked)
	if pkStats.RowHitRate() <= linStats.RowHitRate() {
		t.Errorf("packed row-hit rate %.3f not above linear %.3f",
			pkStats.RowHitRate(), linStats.RowHitRate())
	}
	if pkEnd >= linEnd {
		t.Errorf("packed finished at %d, linear at %d; packed should be faster", pkEnd, linEnd)
	}
}

// Shared arbitration is deterministic: identical lanes produce identical
// schedules and timing logs across independent instances.
func TestSharedCommitRoundDeterminism(t *testing.T) {
	lanes := [][]uint64{
		{5, 900, 33},
		{812, 7},
		{},
		{1000, 1001, 1002, 64},
	}
	run := func() ([][]uint64, []uint64, []byte) {
		s, err := NewShared(testCfg(), 4, 12, 4, 64, 21)
		if err != nil {
			t.Fatal(err)
		}
		s.Model().EnableLog()
		starts, ready := s.CommitRound(100, lanes)
		return starts, ready, s.Model().LogBytes()
	}
	s1, r1, l1 := run()
	s2, r2, l2 := run()
	if !bytes.Equal(l1, l2) {
		t.Error("shared timing logs differ across identical rounds")
	}
	for p := range lanes {
		if r1[p] != r2[p] {
			t.Errorf("partition %d ready %d vs %d", p, r1[p], r2[p])
		}
		for j := range s1[p] {
			if s1[p][j] != s2[p][j] {
				t.Errorf("partition %d slot %d start %d vs %d", p, j, s1[p][j], s2[p][j])
			}
		}
	}
	// Idle partitions hold the floor; busy ones advance monotonically.
	if r1[2] != 100 {
		t.Errorf("idle partition ready = %d, want floor 100", r1[2])
	}
	for p, lane := range lanes {
		prev := uint64(0)
		for j := range lane {
			if s1[p][j] < prev {
				t.Errorf("partition %d starts not monotone: %v", p, s1[p])
			}
			prev = s1[p][j]
		}
		if len(lane) > 0 && r1[p] <= s1[p][len(lane)-1] {
			t.Errorf("partition %d ready %d not after last start %d", p, r1[p], s1[p][len(lane)-1])
		}
	}
}

// Shared partitions contend: the same lanes on a shared device finish no
// earlier than on private devices, and with ≥2 busy partitions on a
// 1-channel device, strictly later.
func TestSharedContention(t *testing.T) {
	cfg := testCfg()
	cfg.Channels = 1
	lanes := [][]uint64{{1, 2, 3}, {100, 200, 300}}

	s, err := NewShared(cfg, 2, 12, 4, 64, 21)
	if err != nil {
		t.Fatal(err)
	}
	_, sharedReady := s.CommitRound(0, lanes)

	var soloReady []uint64
	for _, lane := range lanes {
		dev, err := NewDevice(cfg, 12, 4, 64, 21)
		if err != nil {
			t.Fatal(err)
		}
		now := uint64(0)
		for _, leaf := range lane {
			now = dev.Path(now, leaf).DataReady
		}
		soloReady = append(soloReady, now)
	}
	for p := range lanes {
		if sharedReady[p] < soloReady[p] {
			t.Errorf("partition %d shared ready %d earlier than solo %d", p, sharedReady[p], soloReady[p])
		}
	}
	if sharedReady[0] == soloReady[0] && sharedReady[1] == soloReady[1] {
		t.Error("two partitions on one channel showed no contention at all")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Channels = 0 },
		func(c *Config) { c.Channels = 65 },
		func(c *Config) { c.Ranks = 0 },
		func(c *Config) { c.Banks = 0 },
		func(c *Config) { c.RowBytes = 100 },
		func(c *Config) { c.StripeBytes = 96 },
		func(c *Config) { c.BandwidthGBps = 0 },
		func(c *Config) { c.ClockGHz = 0 },
		// NaN survives a `<= 0` test; none of these converts to uint64 portably.
		func(c *Config) { c.BandwidthGBps = math.NaN() },
		func(c *Config) { c.BandwidthGBps = math.Inf(1) },
		func(c *Config) { c.ClockGHz = math.NaN() },
		func(c *Config) { c.BandwidthGBps = 1e300 },
		// Geometry New would size slices for: refused by arithmetic.
		func(c *Config) { c.Banks = 1 << 30 },
		func(c *Config) { c.Ranks = 1 << 30 },
		func(c *Config) { c.Channels, c.Ranks, c.Banks = 64, 64, 64 },
		func(c *Config) { c.RowBytes = 1 << 62 },
		func(c *Config) { c.StripeBytes = 1 << 40 },
		func(c *Config) { c.TCAS = 0 },
		func(c *Config) { c.Layout = Layout(9) },
	}
	for i, mut := range bad {
		c := DefaultConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}
