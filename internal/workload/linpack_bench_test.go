package workload

import (
	"fmt"
	"testing"
)

func BenchmarkLinpackExecute(b *testing.B) {
	l := NewLinpack()
	task := Task{App: NameLinpack, Method: "solve", Params: EncodeLinpackParams(7, 64)}
	want, err := l.Execute(task)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := l.Execute(task)
		if err != nil {
			b.Fatal(err)
		}
		if m.Output != want.Output {
			b.Fatalf("output drifted: %q vs %q", m.Output, want.Output)
		}
	}
}

// BenchmarkLpSolve times one factorization of a drawn system per order, by
// the unblocked loop (the whole matrix as one panel) and by the blocked one
// lpSolve runs. Each op copies the system back in first (n²+n floats, the
// same for both).
func BenchmarkLpSolve(b *testing.B) {
	for _, n := range []int{8, 24, 32, 48, 64, 128, 149} {
		fill, a, x := lpSystem(1, n)
		back := make([]float64, n*n)
		for _, c := range []struct {
			name   string
			factor func([][]float64, []float64) bool
		}{
			{"unblocked", func(a [][]float64, x []float64) bool { return lpPanel(a, x, 0, len(a)) }},
			{"panel", lpPanels},
		} {
			b.Run(fmt.Sprintf("n=%d/%s", n, c.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(back, fill)
					copy(x, fill[n*n:])
					for r := range a {
						a[r] = back[r*n : (r+1)*n]
					}
					if !c.factor(a, x) {
						b.Fatal("singular")
					}
				}
			})
		}
	}
}
