package banked

import (
	"fmt"
	"math/bits"

	"proram/internal/dram"
)

// TreeMap binds one ORAM tree's geometry to physical DRAM addresses under a
// layout. Buckets are heap-numbered exactly as in internal/tree (node 1 is
// the root, children of n are 2n and 2n+1); TreeMap turns a node number
// into the physical address the device decomposes into channel/bank/row.
//
// Subtree-packed layout: the tree is cut into depth-k subtrees where k is
// the largest depth whose 2^k−1 buckets fit one row. Each deep subtree
// occupies exactly one row of one channel, so the k buckets a path visits
// inside it are row hits after one activation, and consecutive subtree
// slots alternate channels. The 2^k−1 top-of-tree buckets — touched by
// every single path — instead each own a full row, striped across channels:
// their rows never close, so the hottest buckets are always row hits and
// their traffic spreads over every channel instead of piling onto one.
type TreeMap struct {
	levels      int
	bucketBytes uint64
	layout      Layout
	base        uint64
	slotBytes   uint64   // bytes per subtree slot / top bucket row (a whole number of rows)
	subDepth    int      // k: depths per packed subtree
	layerBase   []uint64 // packed: first slot index of each subtree layer
	spanBytes   uint64   // total physical span, channel-stripe aligned
}

// NewTreeMap lays out a tree of the given geometry at physical offset base,
// which must be a multiple of the decomposition's period, alignBytes.
func NewTreeMap(cfg Config, levels, z, blockBytes int, base uint64) (*TreeMap, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if levels < 1 || levels > 40 {
		return nil, fmt.Errorf("banked: tree levels %d out of range [1,40]", levels)
	}
	if z < 1 || blockBytes < 8 {
		return nil, fmt.Errorf("banked: bucket geometry z=%d blockBytes=%d invalid", z, blockBytes)
	}
	if base%alignBytes != 0 {
		return nil, fmt.Errorf("banked: base %d not aligned to the %d-byte channel-stripe period", base, alignBytes)
	}
	t := &TreeMap{
		levels:      levels,
		bucketBytes: uint64(z) * uint64(blockBytes),
		layout:      cfg.Layout,
		base:        base,
	}
	if t.layout == LayoutLinear {
		buckets := (uint64(1) << (levels + 1)) - 1
		t.spanBytes = roundUp(buckets*t.bucketBytes, alignBytes)
		return t, nil
	}
	// k: deepest subtree that fits one row (at least 1 even for huge buckets).
	k := 1
	for (uint64(1)<<(k+1)-1)*t.bucketBytes <= rowBytes && k < levels+1 {
		k++
	}
	t.subDepth = k
	t.slotBytes = roundUp((uint64(1)<<k-1)*t.bucketBytes, rowBytes)
	// Top-of-tree buckets (depth < k): one slot each, slot index node-1.
	units := (uint64(1) << k) - 1
	t.layerBase = make([]uint64, levels/k+1)
	for q := 1; q*k <= levels; q++ {
		t.layerBase[q] = units
		units += uint64(1) << (q * k)
	}
	t.spanBytes = roundUp(units*t.slotBytes, alignBytes)
	return t, nil
}

func roundUp(v, to uint64) uint64 { return (v + to - 1) / to * to }

// SpanBytes returns the physical bytes the tree occupies (alignment
// included), the offset stride for co-locating several trees.
func (t *TreeMap) SpanBytes() uint64 { return t.spanBytes }

// Addr returns the physical address of the bucket with the given heap node
// number.
func (t *TreeMap) Addr(node uint64) uint64 {
	if t.layout == LayoutLinear {
		return t.base + (node-1)*t.bucketBytes
	}
	d := bits.Len64(node) - 1
	if d < t.subDepth {
		// Hot top-of-tree bucket: its own row, rows striped across channels.
		return t.base + (node-1)*t.slotBytes
	}
	q := d / t.subDepth
	r := uint(d % t.subDepth)
	root := node >> r
	// q < len(layerBase) for every node the map was built for: layerBase
	// covers all ceil(levels/subDepth) layer groups.
	slot := t.layerBase[q] + (root - uint64(1)<<(q*t.subDepth))
	local := uint64(1)<<r | (node & (uint64(1)<<r - 1))
	return t.base + slot*t.slotBytes + (local-1)*t.bucketBytes
}

// Device schedules whole ORAM path accesses for one tree on a banked
// Model, implementing dram.Device for the controller. The read phase
// issues every bucket on the path at once (banks and channels order them),
// the crypto pipeline drains, and the write-back phase re-issues the same
// buckets — whose rows the read phase left open — while the next path's
// reads may already be streaming on other banks.
type Device struct {
	m        *Model
	t        *TreeMap
	crypto   uint64
	transfer uint64 // channel cycles of one bucket
	// path holds the buckets of the path being scheduled, root first,
	// each located once for both phases.
	path []loc
}

var _ dram.Device = (*Device)(nil)

// NewDevice builds a Model and binds a tree of the given geometry to it at
// offset 0, laid out as cfg says. crypto is the per-path decrypt pipeline
// drain charged between the read and write-back phases.
func NewDevice(cfg Config, levels, z, blockBytes int, crypto uint64) (*Device, error) {
	tm, err := NewTreeMap(cfg, levels, z, blockBytes, 0)
	if err != nil {
		return nil, err
	}
	return newDevice(New(), tm, crypto), nil
}

func newDevice(m *Model, t *TreeMap, crypto uint64) *Device {
	return &Device{m: m, t: t, crypto: crypto, transfer: transferCycles(t.bucketBytes), path: make([]loc, t.levels+1)}
}

// Model exposes the underlying timing model (stats, instrumentation).
func (d *Device) Model() *Model { return d.m }

// Path schedules the full read+write-back of the path to leaf. The first
// command issues no earlier than now; the returned schedule reports when
// the reads drained, when the data is usable, and when the write-back
// finished.
func (d *Device) Path(now uint64, leaf uint64) dram.PathTiming {
	L := d.t.levels
	leafNode := uint64(1)<<L + leaf
	path, bytes := d.path, d.t.bucketBytes
	var readDone uint64
	for depth := range path {
		path[depth] = locate(d.t.Addr(leafNode >> (L - depth)))
		readDone = max(readDone, d.m.access(now, path[depth], bytes, d.transfer, false))
	}
	dataReady := readDone + d.crypto
	var writeDone uint64
	for depth := len(path) - 1; depth >= 0; depth-- {
		writeDone = max(writeDone, d.m.access(dataReady, path[depth], bytes, d.transfer, true))
	}
	return dram.PathTiming{Start: now, ReadDone: readDone, DataReady: dataReady, Done: writeDone}
}

// Shared is one banked device contended by several ORAM partitions: every
// partition's tree is laid out at its own channel-aligned offset of the
// same physical device, and the sharded frontend arbitrates each round's
// recorded path requests onto it at the round barrier — single-threaded,
// in canonical (slot, partition) order, so live runs and replays produce
// byte-identical schedules no matter how the worker goroutines raced.
type Shared struct {
	m    *Model
	devs []*Device
}

// NewShared builds one Model and binds parts identical trees to it at
// consecutive span-aligned offsets.
func NewShared(cfg Config, parts, levels, z, blockBytes int, crypto uint64) (*Shared, error) {
	if parts < 1 {
		return nil, fmt.Errorf("banked: parts %d must be positive", parts)
	}
	m := New()
	s := &Shared{m: m, devs: make([]*Device, parts)}
	var base uint64
	for i := range s.devs {
		tm, err := NewTreeMap(cfg, levels, z, blockBytes, base)
		if err != nil {
			return nil, err
		}
		s.devs[i] = newDevice(m, tm, crypto)
		base += tm.SpanBytes()
	}
	return s, nil
}

// Model exposes the shared timing model.
func (s *Shared) Model() *Model { return s.m }

// CommitRound arbitrates one scheduling round: leaves[p] is partition p's
// recorded path-access sequence for the round, in controller issue order.
// Paths are scheduled slot-major — slot j of every partition before slot
// j+1 of any — with each partition's chain serialized on its own data
// dependency (a path issues when its predecessor's data is ready). It
// returns, per partition, the contended issue time of every path and the
// data-ready completion of the partition's last path (floor when idle).
func (s *Shared) CommitRound(floor uint64, leaves [][]uint64) (starts [][]uint64, ready []uint64) {
	if len(leaves) != len(s.devs) {
		//proram:invariant the frontend hands one lane per partition; a mismatch is a wiring bug
		panic(fmt.Sprintf("banked: %d lanes for %d partitions", len(leaves), len(s.devs)))
	}
	starts = make([][]uint64, len(leaves))
	ready = make([]uint64, len(leaves))
	maxLen := 0
	for p, lane := range leaves {
		ready[p] = floor
		starts[p] = make([]uint64, len(lane))
		if len(lane) > maxLen {
			maxLen = len(lane)
		}
	}
	for j := 0; j < maxLen; j++ {
		for p, lane := range leaves {
			if j >= len(lane) {
				continue
			}
			starts[p][j] = ready[p]
			pt := s.devs[p].Path(ready[p], lane[j])
			ready[p] = pt.DataReady
		}
	}
	return starts, ready
}
