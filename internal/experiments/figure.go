// Package experiments regenerates every figure of the HIOS paper's
// evaluation (§V simulation, §VI real-system experiments) against this
// repository's simulated substrate. Each FigNN function returns a Figure —
// the same series the paper plots — which cmd/hios-sim and cmd/hios-exp
// print and bench_test.go exercises.
package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"github.com/shus-lab/hios/internal/parallel"
	"github.com/shus-lab/hios/internal/stats"
)

// Point is one x position of one series.
type Point struct {
	X    float64
	Mean float64
	Std  float64
}

// Series is one curve of a figure.
type Series struct {
	Label  string
	Points []Point
}

// Figure is one reproduced paper figure.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// At returns the mean of the labelled series at x, and whether it exists.
func (f *Figure) At(label string, x float64) (float64, bool) {
	for _, s := range f.Series {
		if s.Label != label {
			continue
		}
		for _, p := range s.Points {
			if stats.ApproxEqual(p.X, x, 0) {
				return p.Mean, true
			}
		}
	}
	return 0, false
}

// Labels returns the series labels in order.
func (f *Figure) Labels() []string {
	out := make([]string, len(f.Series))
	for i, s := range f.Series {
		out[i] = s.Label
	}
	return out
}

// Render writes the figure as an aligned text table, one row per x value.
func (f *Figure) Render(w io.Writer) {
	fmt.Fprintf(w, "# %s: %s\n", f.ID, f.Title)
	fmt.Fprintf(w, "# x = %s, y = %s (mean±std)\n", f.XLabel, f.YLabel)
	if len(f.Series) == 0 {
		fmt.Fprintln(w, "(empty)")
		return
	}
	header := fmt.Sprintf("%-10s", f.XLabel)
	for _, s := range f.Series {
		header += fmt.Sprintf("  %-22s", s.Label)
	}
	fmt.Fprintln(w, strings.TrimRight(header, " "))
	for i, p := range f.Series[0].Points {
		row := fmt.Sprintf("%-10.4g", p.X)
		for _, s := range f.Series {
			if i < len(s.Points) {
				cell := fmt.Sprintf("%.4g", s.Points[i].Mean)
				if s.Points[i].Std > 0 {
					cell += fmt.Sprintf("±%.3g", s.Points[i].Std)
				}
				row += fmt.Sprintf("  %-22s", cell)
			}
		}
		fmt.Fprintln(w, strings.TrimRight(row, " "))
	}
}

// String renders the figure to a string.
func (f *Figure) String() string {
	var b strings.Builder
	f.Render(&b)
	return b.String()
}

// RenderJSON writes the figure as indented JSON, for machine consumption
// (plotting scripts, CI dashboards).
func (f *Figure) RenderJSON(w io.Writer) error {
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		return err
	}
	_, err = io.WriteString(w, "\n")
	return err
}

// collect turns per-x samples into a series.
func collect(label string, xs []float64, samples []*stats.Sample) Series {
	s := Series{Label: label}
	for i, x := range xs {
		s.Points = append(s.Points, Point{X: x, Mean: samples[i].Mean(), Std: samples[i].Std()})
	}
	return s
}

// addSeries appends one collected series per label to f; samples is
// indexed [series][x] as seedGrid returns it.
func addSeries[L ~string](f *Figure, labels []L, xs []float64, samples [][]*stats.Sample) {
	for si, label := range labels {
		f.Series = append(f.Series, collect(string(label), xs, samples[si]))
	}
}

// floats converts integer x positions (input sizes, fleet sizes).
func floats(ns []int) []float64 {
	xs := make([]float64, len(ns))
	for i, n := range ns {
		xs[i] = float64(n)
	}
	return xs
}

// seedGrid runs cell on the deterministic worker pool once per (point,
// seed) pair — task t is point t/seeds with seed t%seeds+1 — and adds
// the i-th value a cell returns to samples[i][point]. The merge is serial
// in task order, the accumulation order of the single-threaded loop, so
// every figure built on it is byte-identical at any pool width.
func seedGrid(points, seeds, workers, series int, cell func(point int, seed int64) ([]float64, error)) ([][]*stats.Sample, error) {
	cells, err := parallel.Map(points*seeds, workers, func(t int) ([]float64, error) {
		return cell(t/seeds, int64(t%seeds)+1)
	})
	if err != nil {
		return nil, err
	}
	samples := make([][]*stats.Sample, series)
	for si := range samples {
		samples[si] = make([]*stats.Sample, points)
		for i := range samples[si] {
			samples[si][i] = &stats.Sample{}
		}
	}
	for t, vals := range cells {
		for si, v := range vals {
			samples[si][t/seeds].Add(v)
		}
	}
	return samples, nil
}

// firstPoint gathers each series' sample at point 0: the per-x samples
// of a study whose cells return one value per x.
func firstPoint(samples [][]*stats.Sample) []*stats.Sample {
	out := make([]*stats.Sample, len(samples))
	for i, s := range samples {
		out[i] = s[0]
	}
	return out
}
