package shard

import (
	"bytes"
	"encoding/binary"
	"testing"

	"proram/internal/dram/banked"
)

// runReplay decodes data into a frontend shape (one header byte: 1–4
// partitions, shared banked device or not) and an arbitrary arrival log —
// per arrival a flag byte, then the index and the round, each either small
// (two bytes; one byte added to the previous round) or raw (eight bytes)
// as the flags say — and replays it twice. Replay must return an error or
// a log, never panic, and the same input must give the same bytes.
func runReplay(t *testing.T, data []byte) {
	var hdr byte
	if len(data) > 0 {
		hdr, data = data[0], data[1:]
	}
	cfg := testConfig(1 + int(hdr%4))
	cfg.Blocks = 512
	if hdr&4 != 0 {
		b := banked.DefaultConfig()
		cfg.Banked = &b
	}
	take := func(n int) uint64 {
		var v [8]byte
		data = data[copy(v[:n], data):]
		return binary.LittleEndian.Uint64(v[:])
	}
	var arrivals []Arrival
	var round uint64
	for len(data) > 0 && len(arrivals) < 300 {
		flags := take(1)
		a := Arrival{Seq: uint64(len(arrivals)), Write: flags&1 != 0}
		if flags&2 != 0 {
			a.Index = take(8)
		} else {
			a.Index = take(2) % (cfg.Blocks + 16)
		}
		if flags&4 != 0 {
			round = take(8)
		} else if flags&8 != 0 {
			round -= take(1) // out of order, unless the fuzzer says 0
		} else {
			round += take(1) % 3
		}
		a.Round = round
		arrivals = append(arrivals, a)
	}

	log1, st, err1 := Replay(cfg, arrivals)
	log2, _, err2 := Replay(cfg, arrivals)
	if (err1 != nil) != (err2 != nil) || err1 != nil && err1.Error() != err2.Error() {
		t.Fatalf("two replays of one log disagree: %v, then %v", err1, err2)
	}
	if err1 != nil {
		return
	}
	if !bytes.Equal(log1.Bytes(), log2.Bytes()) {
		t.Fatal("two replays of one log produced different access sequences")
	}
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := st.Ops() + st.RequestErrors; got != uint64(len(arrivals)) {
		t.Fatalf("replay answered %d of %d arrivals", got, len(arrivals))
	}
}

// FuzzReplay runs runReplay over fuzzer-chosen arrival logs.
func FuzzReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 5, 0, 1, 1, 5, 0, 0, 0, 6, 0, 2})                          // three partitions, a duplicate, an idle gap
	f.Add([]byte{7, 0, 1, 0, 2, 8, 2, 0, 1})                                      // banked; the second arrival is out of order
	f.Add([]byte{1, 2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0})        // index past capacity
	f.Add([]byte{0, 4, 9, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})     // the last round there is
	f.Add(append([]byte{6}, bytes.Repeat([]byte{1, 3, 0, 0, 0, 4, 0, 0}, 40)...)) // one hot pair, all in round 0: carry-overs
	// One partition at the default two slots: 200 writes to distinct blocks
	// in round 0 overflow its 64-line cache, the victim queue fills, and
	// misses carry over while pad slots drain it.
	burst := []byte{0}
	for i := range 200 {
		burst = append(burst, 1, byte(i), byte(i>>8), 0)
	}
	f.Add(burst)
	f.Fuzz(runReplay)
}
