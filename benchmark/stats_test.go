package main

import (
	"math"
	"testing"

	"github.com/cold-diffusion/cold/internal/rng"
)

func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{ten, 0.5, 5},   // ceil(5.0) = 5th sample
		{ten, 0.51, 6},  // ceil(5.1) = 6th
		{ten, 0.99, 10}, // ceil(9.9) = 10th
		{ten, 0.9, 9},
		{ten, 0, 1},
		{ten, 1, 10},
		{[]float64{7}, 0.99, 7},
		{nil, 0.5, 0},
	} {
		if got := percentile(c.xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %g) = %g, want %g", c.xs, c.p, got, c.want)
		}
	}
}

// ramp returns 1..n.
func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTailRules(t *testing.T) {
	// Three windows of 1000: each supports a p99 (ten beyond it), so the
	// estimate is the median of 990, 990 and the disturbed window's 5000.
	quiet, loud := ramp(1000), ramp(1000)
	for i := 985; i < 1000; i++ {
		loud[i] = 5000
	}
	got, rule := tail([][]float64{quiet, loud, quiet})
	if got != 990 || rule != "median of 3 window p99s" {
		t.Errorf("windowed tail = %g (%s), want 990 by the window-median rule", got, rule)
	}
	// One hiccup window cannot move it; the plain p99 of the same 3000
	// samples would read 5000.
	if all := percentile(sortedCopy(flatten([][]float64{quiet, loud, quiet})), 0.996); all != 5000 {
		t.Errorf("control: pooled p99.6 = %g, want the hiccup to show at 5000", all)
	}

	// 3 x 400 samples: no window has ten beyond its p99, the phase has
	// twelve beyond the p99 of 1200.
	got, rule = tail([][]float64{ramp(400), ramp(400), ramp(400)})
	if got != 396 || rule != "p99 of the phase" {
		t.Errorf("whole-phase tail = %g (%s), want 396 by p99 of the phase", got, rule)
	}
	// 600 samples: six beyond p99, thirty beyond p95.
	got, rule = tail([][]float64{ramp(600)})
	if got != 570 || rule != "p95 of the phase" {
		t.Errorf("600 samples: tail = %g (%s), want 570 by p95", got, rule)
	}
	// 150 samples: p90 has fifteen beyond it.
	got, rule = tail([][]float64{ramp(150)})
	if got != 135 || rule != "p90 of the phase" {
		t.Errorf("150 samples: tail = %g (%s), want 135 by p90", got, rule)
	}
	// Twenty sweeps: no percentile is supported; the slowest stands.
	got, rule = tail([][]float64{ramp(20)})
	if got != 20 || rule != "slowest sample" {
		t.Errorf("20 samples: tail = %g (%s), want the slowest", got, rule)
	}
	if got, rule = tail(nil); got != 0 || rule != "none" {
		t.Errorf("no samples: tail = %g (%s)", got, rule)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4),
// which the driver uses: [2.75, 5.5, 8.25] for 1..10 and [1.5, 3, 4.5] for
// 1..5.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{ramp(10), [3]float64{2.75, 5.5, 8.25}},
		{ramp(5), [3]float64{1.5, 3, 4.5}},
		{[]float64{10, 1, 7, 3}, [3]float64{1.5, 5, 9.25}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if s := spread(ramp(10)); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread(1..10) = %g, want (8.25-2.75)/5.5 = 1", s)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "gen.request", Start: 0, End: 1000_000},
		{ID: 2, Parent: 1, Name: "cluster.handle", Start: 100_000, End: 900_000},
		// Two overlapping forwards cover 200..700 of the handler between them.
		{ID: 3, Parent: 2, Name: "cluster.forward", Start: 200_000, End: 600_000},
		{ID: 4, Parent: 2, Name: "cluster.forward", Start: 300_000, End: 700_000},
		{ID: 5, Parent: 3, Name: "serve.handle", Start: 250_000, End: 550_000},
		// A direct-call replay lies outside its parent and covers nothing.
		{ID: 6, Parent: 1, Name: "serve.engine", Start: 1100_000, End: 1200_000},
	}
	self := selfTimes(spans)
	want := map[string][]float64{
		"gen.request":     {200},      // 1000 - 800 of cluster.handle
		"cluster.handle":  {300},      // 800 - 500 covered
		"cluster.forward": {100, 400}, // 400 - 300 of serve.handle; 400 alone
		"serve.handle":    {300},
		"serve.engine":    {100},
	}
	for name, w := range want {
		got := self[name]
		if len(got) != len(w) {
			t.Errorf("%s: self times %v, want %v", name, got, w)
			continue
		}
		for i := range w {
			if got[i] != w[i] {
				t.Errorf("%s: self times %v, want %v", name, got, w)
			}
		}
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name   string
		cur    []float64
		higher bool
		bound  float64
		want   string
	}{
		{"same runs", base, false, 0.1, "within"},
		{"every run 20% slower, bound 10%", []float64{120, 121, 119, 120, 122}, false, 0.1, "worse"},
		{"every run faster", []float64{90, 91, 89, 90, 92}, false, 0.1, "better"},
		{"throughput down 20%", []float64{80, 81, 79, 80, 82}, true, 0.1, "worse"},
		{"throughput up", []float64{120, 121, 119, 120, 122}, true, 0.1, "better"},
		{"wide spread hides a bound-sized change", []float64{80, 100, 120, 95, 130}, false, 0.1, "unresolved"},
		{"5% slower inside a 10% bound", []float64{105, 106, 104, 105, 107}, false, 0.1, "within"},
	} {
		if got, _ := verdict(base, c.cur, c.higher, c.bound, rng.New(1)); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
