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

type histogramDump struct {
	Name   string    `json:"name"`
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
	P50    float64   `json:"p50"`
	P95    float64   `json:"p95"`
	P99    float64   `json:"p99"`
}

// histQuantile estimates the q-quantile (0 < q <= 1) of a bucketed
// histogram by linear interpolation inside the bucket holding the target
// rank. The first bucket interpolates from zero; the overflow bucket has
// no upper bound and reports the largest finite bound (the standard
// bucketed-quantile convention). The arithmetic is a fixed left-to-right
// walk, so equal inputs yield bit-equal outputs.
func histQuantile(bounds []float64, counts []uint64, total uint64, q float64) float64 {
	if total == 0 || len(bounds) == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		fc := float64(c)
		if rank > cum+fc {
			cum += fc
			continue
		}
		if i >= len(bounds) {
			return bounds[len(bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		return lo + (bounds[i]-lo)*((rank-cum)/fc)
	}
	return bounds[len(bounds)-1]
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
		bounds := h.bounds
		if bounds == nil {
			bounds = []float64{}
		}
		dump.Histograms = append(dump.Histograms, histogramDump{
			Name: h.name, Bounds: bounds, Counts: h.counts, Count: h.count, Sum: h.sum,
			P50: histQuantile(h.bounds, h.counts, h.count, 0.50),
			P95: histQuantile(h.bounds, h.counts, h.count, 0.95),
			P99: histQuantile(h.bounds, h.counts, h.count, 0.99),
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
