package main

import (
	"regexp"
	"strings"
	"testing"
)

// TestSmoke runs a miniature of every workload, untraced and traced, with
// the layers hosted in this process: sub-second windows over the small
// preset. It asserts only that every correctness check passes, no
// operation fails and every metric name is produced — no thresholds — so
// that `go test ./...` keeps the harness from rotting. The one check it
// skips is the generator-lateness validity rule, which is a threshold.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			label := name + "/untraced"
			want := endToEnd
			if traced {
				label, want = name+"/traced", perLayer
			}
			t.Run(label, func(t *testing.T) {
				dir := t.TempDir()
				e := &env{sz: miniSizes(5), seed: 5, seconds: 0.5, work: dir, traceDir: dir, conns: 2, setupReps: 1}
				r, err := runWorkload(e, name, traced)
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range r.Checks {
					if !c.OK && !strings.HasPrefix(c.Name, "valid:") {
						t.Errorf("check failed: %s: %s", c.Name, c.Detail)
					}
				}
				if r.Failed != 0 || r.Attempted < 1 {
					t.Errorf("attempted %d, failed %d: %+v", r.Attempted, r.Failed, r.Phases)
				}
				if r.ScheduleHash == "" {
					t.Error("no schedule hash")
				}
				for _, m := range want {
					if _, ok := r.Metrics[m.Name]; !ok {
						t.Errorf("metric %s not produced", m.Name)
					}
				}
				if len(r.Metrics) != len(want) {
					t.Errorf("%d metrics produced, %d listed for this kind of run", len(r.Metrics), len(want))
				}
			})
		}
	}
}

// TestBenchmarkFileMatchesProgram fails when a name in BENCHMARK.json is
// not one the program emits, or the program emits one the file does not
// list — names, units and directions alike — and when the file leaves the
// limits of its contract.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	b, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", b.Paths)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the program's default is %d", b.RunSeconds, defaultSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	claim := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract's syntax", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in the file, %d in the program", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		claim(w.Name)
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in the file, %q in the program", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}

	if len(b.EndToEnd) != len(endToEnd) || len(b.EndToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics in the file, %d in the program (limit 16)", len(b.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range b.EndToEnd {
		claim(m.Name)
		if got := (metricSpec{m.Name, m.Unit, m.Better}); got != endToEnd[i] {
			t.Errorf("end-to-end metric %d: file has %v, program has %v", i, got, endToEnd[i])
		}
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is outside the contract's syntax", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g is outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}

	if len(b.PerLayer) != len(perLayer) || len(b.PerLayer) > 128 {
		t.Fatalf("%d per-layer metrics in the file, %d in the program (limit 128)", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		claim(m.Name)
		if got := (metricSpec{m.Name, m.Unit, m.Better}); got != perLayer[i] {
			t.Errorf("per-layer metric %d: file has %v, program has %v", i, got, perLayer[i])
		}
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is outside the contract's syntax", m.Name, m.Unit)
		}
	}
	for n := range opNames {
		if !seen[n] {
			t.Errorf("opNames names workload %q, which the file does not list", n)
		}
	}
}
