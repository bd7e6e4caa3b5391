package shard

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"proram/internal/dram/banked"
	"proram/internal/obs/audit"
	"proram/internal/rng"
)

// payloadSites is every place the package's non-test code touches a
// payload field: where a write's bytes are copied in at admission, handed
// to the cached line, and where a read's bytes are handed out and
// returned. Keys are "function: expression"; a composite-literal key
// reads "function: data: value".
var payloadSites = map[string]int{
	"Read: r.data":               1,
	"enqueue: req.data":          2,
	"finish: req.data":           1,
	"finish: data: line.Bytes()": 1,
}

// TestPayloadFieldsStayContained holds where payload bytes may go in the
// sharded frontend. Only request and response declare a field named data,
// and every data selector and data: composite key in the package's
// non-test files sits in payloadSites, as often as listed there. A
// payload read anywhere else — a branch on it, a routing or cache index
// derived from it — is a new site, and this test fails until it is
// reviewed; TestPayloadsDoNotSteerAccesses then shows on executed code
// whether the bytes change what the wire sees.
func TestPayloadFieldsStayContained(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	for _, file := range pkgs["shard"].Files {
		for _, decl := range file.Decls {
			fn := "package scope"
			if fd, ok := decl.(*ast.FuncDecl); ok {
				fn = fd.Name.Name
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.TypeSpec:
					st, ok := x.Type.(*ast.StructType)
					if !ok || x.Name.Name == "request" || x.Name.Name == "response" {
						break
					}
					for _, f := range st.Fields.List {
						for _, name := range f.Names {
							if name.Name == "data" {
								t.Errorf("%s: struct %s declares a data field; only request and response carry payloads",
									fset.Position(name.Pos()), x.Name.Name)
							}
						}
					}
				case *ast.SelectorExpr:
					if x.Sel.Name == "data" {
						got[fn+": "+types.ExprString(x)]++
					}
				case *ast.KeyValueExpr:
					if k, ok := x.Key.(*ast.Ident); ok && k.Name == "data" {
						got[fn+": data: "+types.ExprString(x.Value)]++
					}
				}
				return true
			})
		}
	}
	var sites []string
	for site := range got {
		sites = append(sites, site)
	}
	for site := range payloadSites {
		if got[site] == 0 {
			sites = append(sites, site)
		}
	}
	sort.Strings(sites)
	for _, site := range sites {
		if got[site] != payloadSites[site] {
			t.Errorf("payload site %q appears %d times, want %d", site, got[site], payloadSites[site])
		}
	}
}

// payloadFamilies are the write payloads the payload-independence tests
// compare: seeded random full blocks (the baseline, which no content-based
// shortcut can skip), all zeros, all ones and a single byte (zero-padded).
// Each draws from its own generator, so the op stream is the same under
// every family.
var payloadFamilies = []struct {
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

// payloadRun is what one run exposes to the wire and to the counters.
type payloadRun struct {
	log   []byte
	stats Stats
	audit []byte
}

// runPayloadStream drives a manual frontend through the real admission
// path: 600 seeded ops over the hot first quarter of the blocks, six
// admitted per round, then rounds until every carried-over request is
// served. Every read must return the last payload written to its block.
func runPayloadStream(t *testing.T, cfg Config, payload func(*rng.Source, int) []byte) payloadRun {
	t.Helper()
	const ops, perRound = 600, 6
	cfg.RecordAccesses = true
	f, err := build(cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	defer f.stopWorkers()
	round := func() {
		f.mu.Lock()
		r := f.snapshotLocked()
		f.mu.Unlock()
		f.runRound(r)
	}
	opRnd, dataRnd := rng.New(38), rng.New(83)
	model := map[uint64][]byte{}
	type pending struct {
		req  *request
		want []byte // reads: the block's contents when admitted
	}
	var reqs []pending
	for i := 0; i < ops; i++ {
		index := opRnd.Uint64n(cfg.Blocks / 4)
		write := opRnd.Bool()
		var data []byte
		if write {
			data = payload(dataRnd, cfg.BlockBytes)
			model[index] = make([]byte, cfg.BlockBytes)
			copy(model[index], data)
		}
		req, err := f.enqueue(index, write, data)
		if err != nil {
			t.Fatal(err)
		}
		want := model[index]
		if want == nil {
			want = make([]byte, cfg.BlockBytes)
		}
		reqs = append(reqs, pending{req, want})
		if (i+1)%perRound == 0 {
			round()
		}
	}
	for f.pending > 0 {
		round()
	}
	wrong := 0
	for i, p := range reqs {
		resp := <-p.req.resp
		if resp.err != nil {
			t.Fatalf("op %d: %v", i, resp.err)
		}
		if !p.req.write && !bytes.Equal(resp.data, p.want) {
			wrong++
		}
	}
	if wrong > 0 {
		t.Errorf("%d reads returned bytes other than the last write's", wrong)
	}
	run := payloadRun{log: f.log.Bytes(), stats: f.Stats()}
	if cfg.Audit != nil {
		var buf bytes.Buffer
		if err := cfg.Audit.Report().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		run.audit = buf.Bytes()
	}
	return run
}

// TestPayloadsDoNotSteerAccesses holds payload independence on the code
// that runs: the same op stream with zero, all-ones, one-byte and random
// payloads must give a byte-identical access log (leaves, start cycles,
// kinds, round shapes), deep-equal Stats and, under an auditor, an
// identical report. A silent-store shortcut, a write skipped by its
// contents or a payload-derived route would each move the log.
func TestPayloadsDoNotSteerAccesses(t *testing.T) {
	packed := banked.DefaultConfig()
	packed.Layout = banked.LayoutSubtreePacked
	for _, tc := range []struct {
		name  string
		parts int
		set   func(*Config) // called once per run: an auditor observes one run
	}{
		{"flat", 1, func(*Config) {}},
		{"flat", 3, func(*Config) {}},
		{"flat", 8, func(*Config) {}},
		{"packed", 4, func(c *Config) { c.Banked = &packed }},
		// MinSamples is low enough for 600 ops to reach verdicts, so the
		// report carries test statistics, not skips.
		{"audited", 2, func(c *Config) { c.Audit = audit.New(audit.Config{Timing: true, MinSamples: 64}) }},
	} {
		t.Run(fmt.Sprintf("%s/parts=%d", tc.name, tc.parts), func(t *testing.T) {
			run := func(payload func(*rng.Source, int) []byte) payloadRun {
				cfg := testConfig(tc.parts)
				tc.set(&cfg)
				return runPayloadStream(t, cfg, payload)
			}
			base := run(payloadFamilies[0].make)
			if base.stats.Writes == 0 || base.stats.Reads == 0 || base.stats.PadWritebacks == 0 {
				t.Fatalf("the op stream exercised nothing: %+v", base.stats)
			}
			for _, fam := range payloadFamilies[1:] {
				got := run(fam.make)
				if !bytes.Equal(got.log, base.log) {
					t.Errorf("%s payloads: access log differs from %s payloads", fam.name, payloadFamilies[0].name)
				}
				if !reflect.DeepEqual(got.stats, base.stats) {
					t.Errorf("%s payloads: stats differ from %s payloads:\n%+v\n%+v", fam.name, payloadFamilies[0].name, got.stats, base.stats)
				}
				if !bytes.Equal(got.audit, base.audit) {
					t.Errorf("%s payloads: audit report differs from %s payloads", fam.name, payloadFamilies[0].name)
				}
			}
		})
	}
}
