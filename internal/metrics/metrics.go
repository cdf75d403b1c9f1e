// Package metrics provides the statistics and rendering helpers shared by
// the experiment harness: means, percentiles, CDFs (Figure 11), and plain-
// text tables matching the paper's presentation.
package metrics

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
)

// ErrOutOfRange matches (via errors.Is) any *RangeError: a percentile or
// quantile argument outside its legal domain.
var ErrOutOfRange = errors.New("metrics: argument out of range")

// RangeError is the typed out-of-domain rejection for Percentile/Quantile
// arguments. Boundary code (e.g. a /metrics scrape handler parsing an
// untrusted q parameter) checks for it with errors.Is(err, ErrOutOfRange)
// instead of recovering from a panic.
type RangeError struct {
	Op     string  // "percentile" or "quantile"
	Value  float64 // the rejected argument
	Lo, Hi float64 // the legal interval, for the message
}

func (e *RangeError) Error() string {
	return fmt.Sprintf("metrics: %s %v outside %v..%v", e.Op, e.Value, e.Lo, e.Hi)
}

// Is makes errors.Is(err, ErrOutOfRange) match.
func (e *RangeError) Is(target error) bool { return target == ErrOutOfRange }

// Mean returns the arithmetic mean (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Sum returns the total.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Min returns the smallest value (NaN for an empty slice).
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest value (NaN for an empty slice).
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) using nearest-rank
// on a sorted copy. NaN samples are ignored (sorting them would leave the
// slice effectively unsorted and break rank selection); the result is NaN
// only when no finite-ordered samples remain. Out-of-range p panics;
// boundary code should use PercentileErr.
func Percentile(xs []float64, p float64) float64 {
	v, err := PercentileErr(xs, p)
	if err != nil {
		panic(err.Error())
	}
	return v
}

// PercentileErr is Percentile returning a typed *RangeError (matching
// ErrOutOfRange via errors.Is) instead of panicking when p is outside
// [0, 100] or NaN.
func PercentileErr(xs []float64, p float64) (float64, error) {
	if math.IsNaN(p) || p < 0 || p > 100 {
		return 0, &RangeError{Op: "percentile", Value: p, Lo: 0, Hi: 100}
	}
	s := dropNaN(xs)
	if len(s) == 0 {
		return math.NaN(), nil
	}
	sort.Float64s(s)
	if p == 0 {
		return s[0], nil
	}
	rank := int(math.Ceil(p/100*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank], nil
}

// dropNaN copies xs without its NaN entries.
func dropNaN(xs []float64) []float64 {
	s := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) {
			s = append(s, x)
		}
	}
	return s
}

// CDF is an empirical cumulative distribution.
type CDF struct {
	sorted []float64
}

// NewCDF builds a CDF over the samples. NaN samples are dropped: they have
// no place in a total order, and sorting a slice containing NaN leaves it
// unsorted for binary search, which would make At non-monotone.
func NewCDF(xs []float64) CDF {
	s := dropNaN(xs)
	sort.Float64s(s)
	return CDF{sorted: s}
}

// At returns P(X ≤ x).
func (c CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.sorted))
}

// FractionAbove returns P(X > x) — e.g. "54.0% of requests get speedup
// higher than 3.0x".
func (c CDF) FractionAbove(x float64) float64 { return 1 - c.At(x) }

// FractionBelow returns P(X < x) — e.g. the offloading-failure rate
// P(speedup < 1).
func (c CDF) FractionBelow(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(c.sorted, x)
	return float64(i) / float64(len(c.sorted))
}

// Table renders aligned plain-text tables for the harness output.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells beyond the header count are dropped.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Headers))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// Rows returns the row count.
func (t *Table) Rows() int { return len(t.rows) }

// Render formats the table.
func (t *Table) Render() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title + "\n")
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c + strings.Repeat(" ", widths[i]-len(c)))
		}
		b.WriteString("\n")
	}
	line(t.Headers)
	total := len(widths)*2 - 2
	for _, w := range widths {
		total += w
	}
	b.WriteString(strings.Repeat("-", total) + "\n")
	for _, r := range t.rows {
		line(r)
	}
	return b.String()
}

// CSV renders the table as RFC-4180-ish CSV (header row first; cells with
// commas or quotes are quoted). The title is not included.
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(c, `"`, `""`))
				b.WriteByte('"')
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// Slug derives a filesystem-friendly name from the table title.
func (t *Table) Slug() string {
	s := strings.ToLower(t.Title)
	if i := strings.Index(s, " — "); i > 0 {
		s = s[:i]
	}
	s = strings.TrimSpace(s)
	s = strings.ReplaceAll(s, " ", "-")
	s = strings.ReplaceAll(s, "(", "-")
	var b strings.Builder
	for _, r := range s {
		if r == '-' || (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9') {
			b.WriteRune(r)
		}
	}
	if b.Len() == 0 {
		return "table"
	}
	return b.String()
}

// F formats a float at the given precision — table-cell helper.
func F(v float64, prec int) string { return fmt.Sprintf("%.*f", prec, v) }
