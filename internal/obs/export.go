package obs

import (
	"encoding/json"
	"io"
)

// The export schema mirrors the in-memory structures with ordered slices
// throughout — no Go maps ever touch the serialization path, so the JSON
// is byte-deterministic: same registrations, same observations, same
// bytes. encoding/json's float formatting (strconv shortest-round-trip)
// is itself deterministic.

type metricsDump struct {
	Counters   []counterDump   `json:"counters"`
	Gauges     []gaugeDump     `json:"gauges"`
	Histograms []histogramDump `json:"histograms"`
	Series     []seriesDump    `json:"series"`
}

type counterDump struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

type gaugeDump struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// histogramDump is a histogram's integer digest: the exact count and
// maximum, and the interpolated p50, p99 and p999.
type histogramDump struct {
	Name  string `json:"name"`
	Count uint64 `json:"count"`
	Max   uint64 `json:"max"`
	P50   uint64 `json:"p50"`
	P99   uint64 `json:"p99"`
	P999  uint64 `json:"p999"`
}

type seriesDump struct {
	Pid    int       `json:"pid"`
	Name   string    `json:"name"`
	Cycles []uint64  `json:"cycles"`
	Values []float64 `json:"values"`
}

// writeMetricsJSON renders the registry and sampler state. Slices are
// materialized (never nil) so absent sections export as [] rather than
// null, keeping downstream parsing uniform.
func writeMetricsJSON(w io.Writer, reg *Registry, sm *Sampler) error {
	dump := metricsDump{
		Counters:   make([]counterDump, 0, len(reg.counters)),
		Gauges:     make([]gaugeDump, 0, len(reg.gauges)),
		Histograms: make([]histogramDump, 0, len(reg.hists)),
		Series:     make([]seriesDump, 0, len(sm.series)),
	}
	for _, c := range reg.counters {
		dump.Counters = append(dump.Counters, counterDump{Name: c.name, Value: c.Value()})
	}
	for _, g := range reg.gauges {
		dump.Gauges = append(dump.Gauges, gaugeDump{Name: g.name, Value: g.Value()})
	}
	for _, h := range reg.hists {
		dump.Histograms = append(dump.Histograms, histogramDump{
			Name: h.name, Count: h.n, Max: h.max,
			P50: h.Quantile(50, 100), P99: h.Quantile(99, 100), P999: h.Quantile(999, 1000),
		})
	}
	for _, s := range sm.series {
		cycles := s.cycles
		if cycles == nil {
			cycles = []uint64{}
		}
		values := s.values
		if values == nil {
			values = []float64{}
		}
		dump.Series = append(dump.Series, seriesDump{Pid: s.pid, Name: s.name, Cycles: cycles, Values: values})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(dump)
}
