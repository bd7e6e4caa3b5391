package proram

import "proram/internal/exp"

// ExperimentTable is one regenerated table/figure of the paper.
type ExperimentTable struct {
	ID      string
	Title   string
	Columns []string
	Rows    []ExperimentRow
	Notes   []string

	inner *exp.Table
}

// ExperimentRow is one x-axis point of a figure.
type ExperimentRow struct {
	Label string
	Cells []float64
}

// Format renders the table as aligned text.
func (t *ExperimentTable) Format() string { return t.inner.Format() }

// CSV renders the table as comma-separated values.
func (t *ExperimentTable) CSV() string { return t.inner.CSV() }

// Cell returns the value at (rowLabel, column).
func (t *ExperimentTable) Cell(rowLabel, column string) (float64, bool) {
	return t.inner.Cell(rowLabel, column)
}

// ExperimentIDs lists every regenerable table/figure id ("table1",
// "fig5" ... "fig15c").
func ExperimentIDs() []string { return exp.IDs() }

// ExperimentTitle describes an experiment id.
func ExperimentTitle(id string) (string, bool) { return exp.Title(id) }

// Experiment regenerates the identified table/figure. scale multiplies
// the workload sizes: 1.0 is the full-size run (minutes for the suite
// figures), smaller values trade fidelity for speed. scale <= 0 or NaN means 1.0.
func Experiment(id string, scale float64) (*ExperimentTable, error) {
	tb, err := exp.Run(id, exp.Options{Scale: scale})
	if err != nil {
		return nil, err
	}
	out := &ExperimentTable{
		ID:      tb.ID,
		Title:   tb.Title,
		Columns: append([]string(nil), tb.Columns...),
		Notes:   append([]string(nil), tb.Notes...),
		inner:   tb,
	}
	for _, r := range tb.Rows {
		out.Rows = append(out.Rows, ExperimentRow{Label: r.Label, Cells: append([]float64(nil), r.Cells...)})
	}
	return out, nil
}
