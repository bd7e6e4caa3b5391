package proram

import (
	"testing"

	"proram/internal/exp"
)

// Each benchmark regenerates one of the paper's tables/figures at a
// reduced scale (benchScale) and reports the wall time of a full harness
// pass. Run `go run ./cmd/proram-bench -scale 1` for the full-size
// figures; EXPERIMENTS.md records a full-scale run.
const benchScale = 0.1

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tb, err := exp.Run(id, exp.Options{Scale: benchScale})
		if err != nil {
			b.Fatal(err)
		}
		if len(tb.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

func BenchmarkTable1Config(b *testing.B)            { benchExperiment(b, "table1") }
func BenchmarkFig5TraditionalPrefetch(b *testing.B) { benchExperiment(b, "fig5") }
func BenchmarkFig6aLocalitySweep(b *testing.B)      { benchExperiment(b, "fig6a") }
func BenchmarkFig6bPhaseChange(b *testing.B)        { benchExperiment(b, "fig6b") }
func BenchmarkFig7SuperBlockSize(b *testing.B)      { benchExperiment(b, "fig7") }
func BenchmarkFig8aSplash2(b *testing.B)            { benchExperiment(b, "fig8a") }
func BenchmarkFig8bSPEC06(b *testing.B)             { benchExperiment(b, "fig8b") }
func BenchmarkFig8cDBMS(b *testing.B)               { benchExperiment(b, "fig8c") }
func BenchmarkFig9aMissRateSplash2(b *testing.B)    { benchExperiment(b, "fig9a") }
func BenchmarkFig9bMissRateSPEC06(b *testing.B)     { benchExperiment(b, "fig9b") }
func BenchmarkFig10Coefficients(b *testing.B)       { benchExperiment(b, "fig10") }
func BenchmarkFig11Bandwidth(b *testing.B)          { benchExperiment(b, "fig11") }
func BenchmarkFig12StashSize(b *testing.B)          { benchExperiment(b, "fig12") }
func BenchmarkFig13ZValue(b *testing.B)             { benchExperiment(b, "fig13") }
func BenchmarkFig14CachelineSize(b *testing.B)      { benchExperiment(b, "fig14") }
func BenchmarkFig15Periodic(b *testing.B)           { benchExperiment(b, "fig15a") }
