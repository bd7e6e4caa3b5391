package banked

import (
	"math"
	"slices"
	"testing"

	"proram/internal/dram"
	"proram/internal/rng"
)

// Address helpers: stripe = addr/4096 alternates the two channels; within
// a channel consecutive 4 KB rows interleave across its eight banks, so a
// bank's next row is 16 rows (64 KB) on.
const (
	addrC0B0R0 = 0     // channel 0, bank 0, row 0
	addrC0B1R0 = 8192  // channel 0, bank 1, row 0
	addrC1B0R0 = 4096  // channel 1, bank 8, row 0
	addrC0B0R1 = 65536 // channel 0, bank 0, row 1
)

// Each channel's rate is the flat model's conversion of 16 GB/s at 1 GHz,
// and the decomposition repeats every 16 banks' worth of rows, the period
// Shared places partition trees at.
func TestGeometryConstants(t *testing.T) {
	if r := dram.DefaultConfig().RatePer1024(); r != rate1024 {
		t.Errorf("rate1024 = %d, the flat channel's RatePer1024 = %d", rate1024, r)
	}
	if alignBytes != 64<<10 {
		t.Errorf("alignBytes = %d, want 64 KiB", alignBytes)
	}
}

func TestDecompose(t *testing.T) {
	cases := []struct {
		addr   uint64
		ch, gb int
		row    uint64
	}{
		{addrC0B0R0, 0, 0, 0},
		{addrC0B1R0, 0, 1, 0},
		{addrC1B0R0, 1, 8, 0},
		{addrC0B0R1, 0, 0, 1},
		{addrC0B0R0 + 64, 0, 0, 0},
		{47*4096 + 100, 1, 15, 2}, // stripe 47: channel 1, its row 23 = bank 7, row 2
	}
	for _, c := range cases {
		ch, gb, row := decompose(c.addr)
		if ch != c.ch || gb != c.gb || row != c.row {
			t.Errorf("decompose(%d) = ch%d gb%d row%d, want ch%d gb%d row%d",
				c.addr, ch, gb, row, c.ch, c.gb, c.row)
		}
	}
}

// decomposeByDivision is decompose written with a division per quotient
// and remainder at the device's geometry, spelled out: 4 KB stripes over
// 2 channels, and 4 KB rows over each channel's 8 banks.
func decomposeByDivision(addr uint64) (ch int, gb int, row uint64) {
	stripe := addr / 4096
	ch = int(stripe % 2)
	inChan := (stripe/2)*4096 + addr%4096
	crow := inChan / 4096
	return ch, ch*8 + int(crow%8), crow / 8
}

func TestDecomposeMatchesDivision(t *testing.T) {
	r := rng.New(28)
	addrs := []uint64{0, 1, 63, 64, 4095, 4096, 65535, 65536, 1<<40 + 12345, math.MaxUint64}
	for range 10000 {
		addrs = append(addrs, r.Uint64n(1<<36), r.Uint64())
	}
	for _, addr := range addrs {
		ch, gb, row := decompose(addr)
		wch, wgb, wrow := decomposeByDivision(addr)
		if ch != wch || gb != wgb || row != wrow {
			t.Fatalf("decompose(%#x) = ch%d gb%d row%d, division gives ch%d gb%d row%d",
				addr, ch, gb, row, wch, wgb, wrow)
		}
	}
}

// Satellite (a): two accesses to the same bank serialize on the bank; the
// same pair across different banks overlaps activation, and across
// different channels overlaps entirely.
func TestSameBankVsDifferentBanks(t *testing.T) {
	// Same bank, different rows: second access waits for the bank AND pays
	// a row conflict. miss = tRCD+tCAS = 28, transfer = 64/16 = 4.
	m := New()
	if got := m.Access(0, addrC0B0R0, 64, false); got != 32 {
		t.Fatalf("first access done = %d, want 32", got)
	}
	// start = bankUntil = 32, conflict = 42, done = 32+42+4 = 78.
	if got := m.Access(0, addrC0B0R1, 64, false); got != 78 {
		t.Errorf("same-bank conflict done = %d, want 78", got)
	}

	// Different banks, same channel: activations overlap, the shared bus
	// serializes only the transfers: done = max(0+28, bus 32) + 4 = 36.
	m = New()
	m.Access(0, addrC0B0R0, 64, false)
	if got := m.Access(0, addrC0B1R0, 64, false); got != 36 {
		t.Errorf("different-bank done = %d, want 36", got)
	}

	// Different channels: fully parallel, both finish at 32.
	m = New()
	m.Access(0, addrC0B0R0, 64, false)
	if got := m.Access(0, addrC1B0R0, 64, false); got != 32 {
		t.Errorf("different-channel done = %d, want 32", got)
	}
}

// Satellite (b): a row hit pays tCAS only; a conflict pays tRP+tRCD+tCAS.
func TestRowHitVsConflict(t *testing.T) {
	m := New()
	m.Access(0, addrC0B0R0, 64, false) // miss, opens row 0, done 32
	// Hit in the open row, issued after the bank freed: 40+14+4 = 58.
	if got := m.Access(40, addrC0B0R0+64, 64, false); got != 58 {
		t.Errorf("row-hit done = %d, want 58", got)
	}
	// Conflict in the same bank: 58+42+4 = 104.
	if got := m.Access(40, addrC0B0R1, 64, false); got != 104 {
		t.Errorf("row-conflict done = %d, want 104", got)
	}
	st := m.Stats()
	if st.RowHits != 1 || st.RowMisses != 1 || st.RowConflicts != 1 {
		t.Errorf("outcomes = %d/%d/%d hits/misses/conflicts, want 1/1/1",
			st.RowHits, st.RowMisses, st.RowConflicts)
	}
	// The per-channel occupancy the obs views export sums to the total.
	var busy uint64
	for _, b := range m.chanBusy {
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

	dev, err := NewDevice(DefaultConfig(), levels, z, blockBytes, crypto)
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
	run := func() []AccessRec {
		dev, err := NewDevice(DefaultConfig(), 12, 4, 64, 21)
		if err != nil {
			t.Fatal(err)
		}
		dev.m.log = []AccessRec{}
		seed := uint64(0x9e3779b97f4a7c15)
		now := uint64(0)
		for i := 0; i < 200; i++ {
			seed = seed*6364136223846793005 + 1442695040888963407
			leaf := (seed >> 33) % (1 << 12)
			pt := dev.Path(now, leaf)
			now = pt.DataReady
		}
		return dev.m.log
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("empty timing log")
	}
	if !slices.Equal(a, b) {
		t.Errorf("timing logs differ: %d vs %d bytes", len(a), len(b))
	}
}

// The subtree-packed layout assigns every bucket a disjoint address range
// inside the tree's span, and packs parent/child buckets of one subtree
// into the same row.
func TestTreeMapPackedAddresses(t *testing.T) {
	const levels, z, blockBytes = 6, 4, 256 // 1 KB buckets in 4 KB rows, k=2
	tm, err := NewTreeMap(DefaultConfig(), levels, z, blockBytes, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tm.subDepth != 2 {
		t.Fatalf("subtree depth = %d, want 2", tm.subDepth)
	}
	bb := tm.bucketBytes
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
	row := func(a uint64) uint64 { return a / 4096 }
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
	tm, err := NewTreeMap(Config{Layout: LayoutLinear}, 8, 4, 64, 0)
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
	if _, err := NewTreeMap(DefaultConfig(), 8, 4, 64, 4096); err == nil {
		t.Error("misaligned base accepted")
	}
}

// The packed layout must actually earn row hits: on the same device
// geometry, a stream of paths sees a strictly higher row-hit rate and a
// strictly earlier finish than the linear layout.
func TestPackedLayoutBeatsLinear(t *testing.T) {
	run := func(layout Layout) (Stats, uint64) {
		dev, err := NewDevice(Config{Layout: layout}, 14, 4, 64, 21)
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

// refPath is Device.Path as a sequence of Model.Access calls, one per
// bucket and phase, each decomposing its address afresh.
func refPath(m *Model, tm *TreeMap, crypto, now, leaf uint64) dram.PathTiming {
	L := tm.levels
	leafNode := uint64(1)<<L + leaf
	var readDone, writeDone uint64
	for depth := 0; depth <= L; depth++ {
		readDone = max(readDone, m.Access(now, tm.Addr(leafNode>>(L-depth)), tm.bucketBytes, false))
	}
	dataReady := readDone + crypto
	for depth := L; depth >= 0; depth-- {
		writeDone = max(writeDone, m.Access(dataReady, tm.Addr(leafNode>>(L-depth)), tm.bucketBytes, true))
	}
	return dram.PathTiming{Start: now, ReadDone: readDone, DataReady: dataReady, Done: writeDone}
}

// Device.Path locates each bucket once and computes one transfer time per
// device; its schedule, its timing log and its statistics must be those
// of the bucket-by-bucket Model.Access calls it replaces, on either layout,
// on an odd bucket size (216 B, whose transfer rounds 13.5 cycles up) and
// through a Shared device's CommitRound.
func TestDevicePathMatchesAccess(t *testing.T) {
	packed, linear := DefaultConfig(), Config{Layout: LayoutLinear}
	type geom struct{ levels, z, blockBytes int }
	odd := geom{11, 3, 72}
	cases := []struct {
		name string
		cfg  Config
		g    geom
	}{
		{"packed", packed, geom{12, 4, 64}},
		{"linear", linear, geom{12, 4, 64}},
		{"default", packed, geom{14, 3, 128}},
		{"odd/packed", packed, odd},
		{"odd/linear", linear, odd},
	}
	const crypto, paths = 21, 2000
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dev, err := NewDevice(c.cfg, c.g.levels, c.g.z, c.g.blockBytes, crypto)
			if err != nil {
				t.Fatal(err)
			}
			tm, err := NewTreeMap(c.cfg, c.g.levels, c.g.z, c.g.blockBytes, 0)
			if err != nil {
				t.Fatal(err)
			}
			ref := New()
			dev.m.log, ref.log = []AccessRec{}, []AccessRec{}
			r := rng.New(uint64(i + 1))
			var now uint64
			for range paths {
				leaf := r.Uint64n(uint64(1) << c.g.levels)
				got, want := dev.Path(now, leaf), refPath(ref, tm, crypto, now, leaf)
				if got != want {
					t.Fatalf("leaf %d at %d: Path = %+v, Access calls give %+v", leaf, now, got, want)
				}
				now += r.Uint64n(300) // sometimes behind the last path, sometimes past it
			}
			if !slices.Equal(dev.m.log, ref.log) {
				t.Error("timing logs differ")
			}
			if dev.Model().Stats() != ref.Stats() {
				t.Errorf("stats %+v, Access calls give %+v", dev.Model().Stats(), ref.Stats())
			}
		})
	}

	t.Run("shared", func(t *testing.T) {
		const parts, levels, z, blockBytes = 3, 11, 3, 72
		sh, err := NewShared(packed, parts, levels, z, blockBytes, crypto)
		if err != nil {
			t.Fatal(err)
		}
		ref := New()
		var tms []*TreeMap
		var base uint64
		for range parts {
			tm, err := NewTreeMap(packed, levels, z, blockBytes, base)
			if err != nil {
				t.Fatal(err)
			}
			tms = append(tms, tm)
			base += tm.SpanBytes()
		}
		sh.m.log, ref.log = []AccessRec{}, []AccessRec{}
		r := rng.New(9)
		var floor uint64
		for done := 0; done < paths; {
			lanes := make([][]uint64, parts)
			for p := range lanes {
				for range r.Intn(5) {
					lanes[p] = append(lanes[p], r.Uint64n(1<<levels))
					done++
				}
			}
			starts, ready := sh.CommitRound(floor, lanes)
			// CommitRound's order, slot-major, on the reference; a lane
			// holds at most four paths.
			wantReady := make([]uint64, parts)
			for p := range wantReady {
				wantReady[p] = floor
			}
			for j := 0; j < 4; j++ {
				for p, lane := range lanes {
					if j >= len(lane) {
						continue
					}
					if starts[p][j] != wantReady[p] {
						t.Fatalf("partition %d slot %d starts at %d, want %d", p, j, starts[p][j], wantReady[p])
					}
					wantReady[p] = refPath(ref, tms[p], crypto, wantReady[p], lane[j]).DataReady
				}
			}
			for p := range ready {
				if ready[p] != wantReady[p] {
					t.Fatalf("partition %d ready at %d, want %d", p, ready[p], wantReady[p])
				}
				floor = max(floor, ready[p])
			}
		}
		if !slices.Equal(sh.m.log, ref.log) {
			t.Error("timing logs differ")
		}
		if sh.Model().Stats() != ref.Stats() {
			t.Errorf("stats %+v, Access calls give %+v", sh.Model().Stats(), ref.Stats())
		}
	})
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
	run := func() ([][]uint64, []uint64, []AccessRec) {
		s, err := NewShared(DefaultConfig(), 4, 12, 4, 64, 21)
		if err != nil {
			t.Fatal(err)
		}
		s.m.log = []AccessRec{}
		starts, ready := s.CommitRound(100, lanes)
		return starts, ready, s.m.log
	}
	s1, r1, l1 := run()
	s2, r2, l2 := run()
	if !slices.Equal(l1, l2) {
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
// earlier than on private devices, and with ≥2 busy partitions, whose
// paths all cross both channels, strictly later.
func TestSharedContention(t *testing.T) {
	cfg := DefaultConfig()
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
		t.Error("two partitions on one device showed no contention at all")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if err := (Config{Layout: LayoutLinear}).Validate(); err != nil {
		t.Fatalf("linear layout invalid: %v", err)
	}
	for _, l := range []Layout{-1, 2, 9} {
		if err := (Config{Layout: l}).Validate(); err == nil {
			t.Errorf("layout %d accepted", l)
		}
	}
}
