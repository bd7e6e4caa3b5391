package proram

import (
	"bytes"
	"reflect"
	"testing"

	"proram/internal/oram"
	"proram/internal/rng"
	"proram/internal/seal"
	"proram/internal/shard"
)

// tracedRAM assembles a RAM the way New does, with the controller's
// physical access trace recorded.
func tracedRAM(t *testing.T, cfg Config) *RAM {
	t.Helper()
	cfg, err := cfg.normalize()
	if err != nil {
		t.Fatal(err)
	}
	ocfg := cfg.oramConfig()
	ocfg.RecordTrace = true
	ctrl, err := oram.New(ocfg)
	if err != nil {
		t.Fatal(err)
	}
	sealer, err := seal.New(cfg.sealKey(), cfg.nonceSource())
	if err != nil {
		t.Fatal(err)
	}
	store := shard.NewStore(ctrl, sealer, cfg.BlockBytes)
	cache, err := shard.NewCache(store, cfg.CacheBlocks, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &RAM{cfg: cfg, store: store, cache: cache}
}

// ramPayloadFamilies are the write payloads TestRAMPayloadsDoNotSteerAccesses
// compares: seeded random full blocks (the baseline), all zeros, all ones
// and a single byte (zero-padded).
var ramPayloadFamilies = []struct {
	name string
	make func(r *rng.Source, blockBytes int) []byte
}{
	{"random", func(r *rng.Source, n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(r.Uint64())
		}
		return b
	}},
	{"zeros", func(_ *rng.Source, n int) []byte { return make([]byte, n) }},
	{"0xff", func(_ *rng.Source, n int) []byte { return bytes.Repeat([]byte{0xff}, n) }},
	{"1-byte", func(r *rng.Source, _ int) []byte { return []byte{byte(r.Uint64())} }},
}

// TestRAMPayloadsDoNotSteerAccesses holds payload independence on the
// unified RAM: 3,000 seeded ops over the hot first quarter of the blocks,
// with a Flush every 1,000, must give the same controller trace (leaves,
// start cycles, kinds) and the same oram.Stats under every payload family
// and every scheme. A silent store — a write skipped because the cached
// line already holds its bytes — leaves the line clean and drops its
// write-back, and the trace moves.
func TestRAMPayloadsDoNotSteerAccesses(t *testing.T) {
	type observed struct {
		trace []oram.TraceEvent
		stats oram.Stats
	}
	for _, scheme := range []Scheme{SchemeNone, SchemeStatic, SchemeDynamic} {
		t.Run(scheme.String(), func(t *testing.T) {
			run := func(payload func(*rng.Source, int) []byte) observed {
				r := tracedRAM(t, Config{Blocks: 1 << 12, CacheBlocks: 64, Scheme: scheme})
				opRnd, dataRnd := rng.New(38), rng.New(83)
				model := map[uint64][]byte{}
				wrong := 0
				for i := 1; i <= 3000; i++ {
					index := opRnd.Uint64n(r.Blocks() / 4)
					if opRnd.Bool() {
						data := payload(dataRnd, r.BlockBytes())
						if err := r.Write(index, data); err != nil {
							t.Fatal(err)
						}
						model[index] = make([]byte, r.BlockBytes())
						copy(model[index], data)
					} else {
						got, err := r.Read(index)
						if err != nil {
							t.Fatal(err)
						}
						if want := model[index]; want != nil && !bytes.Equal(got, want) {
							wrong++
						}
					}
					if i%1000 == 0 {
						if err := r.Flush(); err != nil {
							t.Fatal(err)
						}
					}
				}
				if wrong > 0 {
					t.Errorf("%d reads returned bytes other than the last write's", wrong)
				}
				return observed{r.store.Ctrl.Trace(), r.store.Ctrl.Stats()}
			}
			base := run(ramPayloadFamilies[0].make)
			if base.stats.Writebacks == 0 {
				t.Fatalf("the op stream wrote nothing back: %+v", base.stats)
			}
			for _, fam := range ramPayloadFamilies[1:] {
				got := run(fam.make)
				if !reflect.DeepEqual(got.trace, base.trace) {
					t.Errorf("%s payloads: controller trace differs from %s payloads (%d vs %d accesses)",
						fam.name, ramPayloadFamilies[0].name, len(got.trace), len(base.trace))
				}
				if got.stats != base.stats {
					t.Errorf("%s payloads: oram.Stats differ from %s payloads:\n%+v\n%+v",
						fam.name, ramPayloadFamilies[0].name, got.stats, base.stats)
				}
			}
		})
	}
}
