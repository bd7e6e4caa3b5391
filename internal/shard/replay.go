package shard

import (
	"encoding/binary"
	"fmt"
)

// Arrival is one admitted request in a recorded run: its global admission
// sequence number, what it asked for, and the scheduling round it became
// available to (the round the dispatcher was forming when it arrived).
// Payloads are deliberately absent: an ORAM's access pattern is
// independent of block contents, so the log carries only addresses.
type Arrival struct {
	Seq   uint64
	Index uint64
	Write bool
	Round uint64
}

// PathRec is one physical path access in the canonical global sequence:
// which round and partition issued it, the tree leaf it touched, the
// simulated start cycle, and the access kind. The (Round, Part) pair
// orders records across partitions; within a pair, controller issue order.
type PathRec struct {
	Round uint64
	Part  int
	Leaf  uint64
	Start uint64
	Kind  uint8
}

// RoundShape is the per-(round, partition) access accounting: how many
// demand and dummy slot accesses the partition issued, and the round kind
// (demand, flush, or flush padding). Demand shapes obey
// Real+Dummy == RoundSlots — the scheduler's obliviousness contract.
type RoundShape struct {
	Round uint64
	Part  int
	Kind  uint8
	Real  int
	Dummy int
}

// Log is the canonical global access sequence of a sharded run. Two runs
// with the same configuration, seed, and arrival log produce Logs whose
// Bytes() are identical.
type Log struct {
	Shapes []RoundShape
	Paths  []PathRec
}

// logMagic versions the encoding; bump it when the record layout changes.
const logMagic = "proram-shard-log\x01"

// Bytes returns a deterministic binary encoding of the log: magic, record
// counts, then fixed-width little-endian records in committed order. This
// is the byte string the replay determinism test compares.
func (l *Log) Bytes() []byte {
	buf := make([]byte, 0, len(logMagic)+16+len(l.Shapes)*26+len(l.Paths)*29)
	buf = append(buf, logMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(l.Shapes)))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(l.Paths)))
	for _, s := range l.Shapes {
		buf = binary.LittleEndian.AppendUint64(buf, s.Round)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(s.Part))
		buf = append(buf, s.Kind)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(s.Real))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(s.Dummy))
	}
	for _, p := range l.Paths {
		buf = binary.LittleEndian.AppendUint64(buf, p.Round)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(p.Part))
		buf = binary.LittleEndian.AppendUint64(buf, p.Leaf)
		buf = binary.LittleEndian.AppendUint64(buf, p.Start)
		buf = append(buf, p.Kind)
	}
	return buf
}

// Replay re-executes a recorded arrival log against a fresh frontend and
// returns the canonical access sequence it produced. The rounds are
// reformed exactly as the original run formed them: arrivals join the
// queues at their recorded round, leftovers carry over by the same
// deterministic budget rules, and records commit in (round, partition)
// order — so under the same Config and seed, two Replays (and the
// recording run itself) yield byte-identical Logs, partition concurrency
// notwithstanding. A Recorder and an Audit in cfg observe the replay as
// they would a live run: every emission is on this round driver, at a
// commit barrier.
func Replay(cfg Config, arrivals []Arrival) (*Log, Stats, error) {
	cfg.RecordAccesses = true
	cfg.RecordArrivals = false
	f, err := build(cfg, true)
	if err != nil {
		return nil, Stats{}, err
	}
	defer f.stopWorkers()
	for i := 1; i < len(arrivals); i++ {
		if arrivals[i].Round < arrivals[i-1].Round {
			return nil, Stats{}, fmt.Errorf("shard: arrival log out of order at entry %d", i)
		}
	}
	i := 0
	var round uint64
	for i < len(arrivals) || f.pending > 0 {
		if f.pending == 0 && arrivals[i].Round > round {
			// The recorded run was idle here; skip to the next busy round.
			round = arrivals[i].Round
		}
		for i < len(arrivals) && arrivals[i].Round <= round {
			a := arrivals[i]
			if err := f.replayEnqueue(a); err != nil {
				return nil, Stats{}, err
			}
			i++
		}
		f.mu.Lock()
		f.snapshotLocked()
		f.nextRound = round + 1
		f.mu.Unlock()
		f.runRound(round)
		round++
	}
	return f.log, f.snap.clone(), nil
}

// replayEnqueue routes one recorded arrival without touching sequence or
// arrival bookkeeping (the log already fixed both). Write payloads are
// zero blocks: contents don't influence the access pattern.
func (f *Frontend) replayEnqueue(a Arrival) error {
	if a.Index >= f.cfg.Blocks {
		return fmt.Errorf("shard: arrival %d index %d out of range (%d blocks)", a.Seq, a.Index, f.cfg.Blocks)
	}
	req := &request{seq: a.Seq, index: a.Index, write: a.Write, arr: a.Round, resp: make(chan response, 1)}
	part := f.pmap.Lookup(a.Index)
	f.queues[part] = append(f.queues[part], req)
	f.pending++
	return nil
}
