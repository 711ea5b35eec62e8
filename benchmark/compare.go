package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"github.com/cold-diffusion/cold/internal/rng"
	"github.com/cold-diffusion/cold/internal/stats"
)

// benchmarkFile is BENCHMARK.json, the driver's contract: the names the
// program must print and the bound by which each end-to-end metric may
// worsen.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

func readResults(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Sets) == 0 {
		return nil, fmt.Errorf("%s holds no result sets", path)
	}
	return &f, nil
}

// series collects one metric's value on one workload over a file's sets.
func (f *resultFile) series(workload, metric string, traced bool) []float64 {
	var xs []float64
	for _, set := range f.Sets {
		runs := set.Untraced
		if traced {
			runs = set.Traced
		}
		for _, r := range runs {
			if v, ok := r.Metrics[metric]; ok && r.Workload == workload {
				xs = append(xs, v.Value)
			}
		}
	}
	return xs
}

// printSpread prints each metric's median and quartiles over the sets of
// a -repeat run, with the spread the driver would compute from them.
func printSpread(f *resultFile, w io.Writer) {
	fmt.Fprintf(w, "\n== medians and quartiles over %d sets (spread = (q3-q1)/median)\n", len(f.Sets))
	for _, part := range []struct {
		list   []metricSpec
		traced bool
	}{{endToEnd, false}, {perLayer, true}} {
		for _, wl := range workloadNames {
			for _, m := range part.list {
				xs := f.series(wl, m.Name, part.traced)
				if len(xs) == 0 {
					continue
				}
				q1, q2, q3 := quartiles(xs)
				fmt.Fprintf(w, "   %-18s %-36s median %14.4f  q1 %14.4f  q3 %14.4f %-6s spread %6.3f\n",
					wl, m.Name, q2, q1, q3, m.Unit, spread(xs))
			}
		}
	}
}

// verdict compares one metric on one workload between two sets of runs.
// worse: the new median is worse than the old by more than the bound, and
// the bootstrap interval of the new median lies wholly on the worse side
// of the old median. better: every new run reads better than every old
// one, or the new median is better by more than the old runs' own spread
// and its interval lies wholly on the better side. unresolved: neither,
// and the run-to-run spread of either side is wider than the bound, so
// "no change" cannot be told from a change of the bound's size. within:
// the rest.
func verdict(old, cur []float64, higherBetter bool, bound float64, r *rng.RNG) (string, float64) {
	sign := 1.0 // positive change = worse
	if higherBetter {
		sign = -1
	}
	mo, mn := stats.Median(old), stats.Median(cur)
	change := sign * (mn - mo) / mo
	lo, hi := stats.BootstrapCI(cur, stats.Median, 2000, 0.95, r)
	ciWorse := sign*(lo-mo) > 0 && sign*(hi-mo) > 0
	ciBetter := sign*(lo-mo) < 0 && sign*(hi-mo) < 0
	allBetter := true
	for _, o := range old {
		for _, n := range cur {
			if sign*(n-o) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case change > bound && (ciWorse || len(cur) < 3):
		return "worse", change
	case allBetter, -change > spread(old) && ciBetter:
		return "better", change
	case spread(old) > bound || spread(cur) > bound:
		return "unresolved", change
	default:
		return "within", change
	}
}

// compareFiles prints one row per end-to-end metric and workload — base,
// change, bound, verdict — and fails when any row reads worse.
func compareFiles(args []string, w io.Writer) error {
	if len(args) != 2 {
		return errors.New("usage: -compare old.json new.json")
	}
	spec, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	old, err := readResults(args[0])
	if err != nil {
		return err
	}
	cur, err := readResults(args[1])
	if err != nil {
		return err
	}
	r := rng.New(1)
	worse := 0
	fmt.Fprintf(w, "%-18s %-20s %14s %14s %8s %6s  %s\n", "workload", "metric", "base median", "new median", "change", "bound", "verdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			a, b := old.series(wl.Name, m.Name, false), cur.series(wl.Name, m.Name, false)
			if len(a) == 0 || len(b) == 0 {
				fmt.Fprintf(w, "%-18s %-20s missing from one side\n", wl.Name, m.Name)
				worse++
				continue
			}
			v, change := verdict(a, b, m.Better == "higher", m.Bound, r)
			if v == "worse" {
				worse++
			}
			fmt.Fprintf(w, "%-18s %-20s %14.4f %14.4f %+7.1f%% %5.0f%%  %s (n=%d,%d; positive change is worse)\n",
				wl.Name, m.Name, stats.Median(a), stats.Median(b), 100*change, 100*m.Bound, v, len(a), len(b))
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d metric x workload pair(s) worse than the bound", worse)
	}
	return nil
}
