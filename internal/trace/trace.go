// Package trace provides the measurement plumbing of the benchmark
// harness: summary statistics over repeated trials and plain-text
// tables matching the rows each experiment of internal/experiments
// promises.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"unicode/utf8"
)

// Stats summarises a sample.
type Stats struct {
	Count  int
	Min    float64
	Max    float64
	Mean   float64
	Median float64
	P95    float64
	StdDev float64
}

// Summarize computes Stats over xs; an empty sample yields zeros.
func Summarize(xs []float64) Stats {
	if len(xs) == 0 {
		return Stats{}
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	st := Stats{
		Count:  len(s),
		Min:    s[0],
		Max:    s[len(s)-1],
		Median: quantile(s, 0.5),
		P95:    quantile(s, 0.95),
	}
	var sum float64
	for _, x := range s {
		sum += x
	}
	st.Mean = sum / float64(len(s))
	var sq float64
	for _, x := range s {
		d := x - st.Mean
		sq += d * d
	}
	st.StdDev = math.Sqrt(sq / float64(len(s)))
	return st
}

// SummarizeInts is Summarize over integer samples.
func SummarizeInts(xs []int64) Stats {
	fs := make([]float64, len(xs))
	for i, x := range xs {
		fs[i] = float64(x)
	}
	return Summarize(fs)
}

// quantile returns the q-quantile of sorted s by linear interpolation.
func quantile(s []float64, q float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Table is a plain-text table with aligned columns.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells are rendered with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch x := c.(type) {
		case float64:
			row[i] = trimFloat(x)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// trimFloat renders floats compactly (2 decimals, no trailing zeros).
func trimFloat(x float64) string {
	s := fmt.Sprintf("%.2f", x)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}

// Rows returns the number of data rows.
func (t *Table) Rows() int { return len(t.rows) }

// Render writes the table as aligned text. Widths are computed in
// runes so headers with multi-byte symbols (Δ, ⌈log₂N⌉, …) align.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = utf8.RuneCountInString(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && utf8.RuneCountInString(cell) > widths[i] {
				widths[i] = utf8.RuneCountInString(cell)
			}
		}
	}
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "%s\n", t.Title); err != nil {
			return err
		}
	}
	line := func(cells []string) error {
		var b strings.Builder
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if pad := widths[i] - utf8.RuneCountInString(cell); pad > 0 && i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", pad))
			}
		}
		_, err := fmt.Fprintln(w, b.String())
		return err
	}
	if err := line(t.Headers); err != nil {
		return err
	}
	rule := make([]string, len(t.Headers))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	if err := line(rule); err != nil {
		return err
	}
	for _, row := range t.rows {
		if err := line(row); err != nil {
			return err
		}
	}
	return nil
}

// RenderCSV writes the table as CSV (no quoting — cells must not
// contain commas).
func (t *Table) RenderCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, strings.Join(t.Headers, ",")); err != nil {
		return err
	}
	for _, row := range t.rows {
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

// RenderJSON writes the table as a JSON object with title, headers and
// rows (all cells as strings, exactly as rendered). cmd/benchtab uses
// it to commit machine-readable baselines (BENCH_*.json) that future
// performance PRs can diff against.
func (t *Table) RenderJSON(w io.Writer) error {
	rows := t.rows
	if rows == nil {
		rows = [][]string{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Title   string     `json:"title"`
		Headers []string   `json:"headers"`
		Rows    [][]string `json:"rows"`
	}{t.Title, t.Headers, rows})
}
