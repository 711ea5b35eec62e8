package main

import (
	"fmt"
	"math"
	"sort"

	"github.com/cold-diffusion/cold/internal/stats"
)

// percentile is the nearest-rank percentile of an ascending slice: the
// smallest sample with at least p of the samples at or below it. An empty
// slice reads 0.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(n))) - 1
	return sorted[max(0, min(i, n-1))]
}

func sortedCopy(xs []float64) []float64 {
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	return cp
}

// beyondTail is the number of samples that must lie beyond a percentile
// for it to be reported (choosing-metrics guide, section 1).
const beyondTail = 10

// tail is the tail estimate of one operation's latencies, given per window
// of the open loop. When every window supports a p99 (at least ten samples
// beyond it) the estimate is the median of the window p99s, so that one
// scheduler hiccup moves at most one window. Otherwise it is taken over
// the whole phase at the highest of p99, p95 and p90 that has ten samples
// beyond it, and for a phase too short for any of them — the sweeps of a
// training run — it is the slowest sample. The rule depends only on the
// sample count, which the workload's fixed rate sets; the second result
// names the rule that applied.
func tail(windows [][]float64) (float64, string) {
	var all []float64
	windowed := len(windows) > 1
	for _, w := range windows {
		all = append(all, w...)
		if float64(len(w))*0.01 < beyondTail {
			windowed = false
		}
	}
	if len(all) == 0 {
		return 0, "none"
	}
	if windowed {
		p99s := make([]float64, len(windows))
		for i, w := range windows {
			p99s[i] = percentile(sortedCopy(w), 0.99)
		}
		return stats.Median(p99s), fmt.Sprintf("median of %d window p99s", len(windows))
	}
	sort.Float64s(all)
	for _, p := range []float64{0.99, 0.95, 0.90} {
		if float64(len(all))*(1-p) >= beyondTail {
			return percentile(all, p), fmt.Sprintf("p%.0f of the phase", p*100)
		}
	}
	return all[len(all)-1], "slowest sample"
}

// quartiles returns the first, second and third quartile as Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is what
// the driver computes a metric's spread from.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
