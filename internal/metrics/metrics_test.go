package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestMeanSumMinMax(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if Mean(xs) != 2.5 || Sum(xs) != 10 || Min(xs) != 1 || Max(xs) != 4 {
		t.Fatalf("mean=%v sum=%v min=%v max=%v", Mean(xs), Sum(xs), Min(xs), Max(xs))
	}
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
	if !math.IsNaN(Min(nil)) || !math.IsNaN(Max(nil)) {
		t.Fatal("Min/Max of empty not NaN")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if got := Percentile(xs, 50); got != 3 {
		t.Fatalf("p50 = %v", got)
	}
	if got := Percentile(xs, 100); got != 5 {
		t.Fatalf("p100 = %v", got)
	}
	if got := Percentile(xs, 0); got != 1 {
		t.Fatalf("p0 = %v", got)
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 3, 4})
	if got := c.At(2); got != 0.6 {
		t.Fatalf("At(2) = %v, want 0.6", got)
	}
	if got := c.FractionAbove(3); math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("FractionAbove(3) = %v, want 0.2", got)
	}
	if got := c.FractionBelow(1); got != 0 {
		t.Fatalf("FractionBelow(1) = %v, want 0 (strictly below)", got)
	}
	if got := c.FractionBelow(2); got != 0.2 {
		t.Fatalf("FractionBelow(2) = %v, want 0.2", got)
	}
}

// Property: CDF is monotone and bounded in [0,1].
func TestPropertyCDFMonotone(t *testing.T) {
	f := func(xs []float64, probes []float64) bool {
		for i, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				xs[i] = 0
			}
		}
		c := NewCDF(xs)
		prev := -1.0
		for _, p := range probes {
			if math.IsNaN(p) || math.IsInf(p, 0) {
				continue
			}
			_ = prev
			v := c.At(p)
			if v < 0 || v > 1 {
				return false
			}
		}
		// Monotonicity over sorted probes.
		last := 0.0
		for _, x := range []float64{-1e9, -1, 0, 1, 1e9} {
			v := c.At(x)
			if v < last {
				return false
			}
			last = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("Table I", "Runtime", "Setup", "Memory")
	tb.AddRow("Android VM", "28.72s", "512MB")
	tb.AddRow("CAC", "1.75s", "96MB")
	out := tb.Render()
	if !strings.Contains(out, "Table I") || !strings.Contains(out, "Android VM") {
		t.Fatalf("render:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if tb.Rows() != 2 {
		t.Fatalf("rows = %d", tb.Rows())
	}
}

func TestF(t *testing.T) {
	if F(3.14159, 2) != "3.14" {
		t.Fatalf("F = %q", F(3.14159, 2))
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("Table I — overheads", "Runtime", "Setup")
	tb.AddRow("Android VM", "28.72s")
	tb.AddRow(`CAC, "optimized"`, "1.75s")
	csv := tb.CSV()
	lines := strings.Split(strings.TrimRight(csv, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d:\n%s", len(lines), csv)
	}
	if lines[0] != "Runtime,Setup" {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[2] != `"CAC, ""optimized""",1.75s` {
		t.Fatalf("quoted row = %q", lines[2])
	}
}

func TestTableSlug(t *testing.T) {
	for _, tc := range []struct{ title, want string }{
		{"Table I — overheads of code runtime environments", "table-i"},
		{"Figure 1(OCR) — VM-based cloud, LAN WiFi", "figure-1-ocr"},
		{"Figure 10(ChessGame) — normalized energy (local execution = 1.0)", "figure-10-chessgame"},
		{"", "table"},
	} {
		tb := NewTable(tc.title, "a")
		if got := tb.Slug(); got != tc.want {
			t.Errorf("Slug(%q) = %q, want %q", tc.title, got, tc.want)
		}
	}
}
