package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/cold-diffusion/cold/internal/corpus"
	"github.com/cold-diffusion/cold/internal/stats"
)

// value is one reported metric.
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	Note    string  `json:"note,omitempty"` // e.g. which tail rule applied
}

// phaseCount is the sent/ok/failed tally of one phase.
type phaseCount struct {
	Name   string `json:"name"`
	Sent   int    `json:"sent"`
	OK     int    `json:"ok"`
	Failed int    `json:"failed"`
}

// check is one correctness check of a run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// runResult is everything one run of one workload reports.
type runResult struct {
	Workload     string           `json:"workload"`
	Seed         uint64           `json:"seed"`
	Seconds      float64          `json:"seconds"`
	Traced       bool             `json:"traced"`
	Operations   [3]string        `json:"operations"` // primary, secondary, tertiary
	ScheduleHash string           `json:"schedule_hash"`
	Metrics      map[string]value `json:"metrics"`
	Phases       []phaseCount     `json:"phases"`
	Checks       []check          `json:"checks"`
	Attempted    int              `json:"attempted"`
	Failed       int              `json:"failed"`
}

func newResult(e *env, workload string, traced bool) *runResult {
	return &runResult{Workload: workload, Seed: e.seed, Seconds: e.seconds, Traced: traced,
		Operations: opNames[workload], Metrics: map[string]value{}}
}

// correct reports whether every check of the run passed.
func (r *runResult) correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

func (r *runResult) check(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

func (r *runResult) set(name string, v float64, samples int, note string) {
	unit := ""
	for _, list := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				unit = m.Unit
			}
		}
	}
	if unit == "" {
		panic("benchmark: metric " + name + " is not in spec.go")
	}
	r.Metrics[name] = value{Value: v, Unit: unit, Samples: samples, Note: note}
}

// slow returns the divisor of one of the workload's numbers (0, 1, 2: the
// primary, secondary and tertiary time; 3: the primary rate): the host's
// slowdown by ref, to the power of the number's hostShare.
func (r *runResult) slow(number int, ref *hostRef) float64 {
	return scaleBy(ref, hostShare[r.Workload][number])
}

// scaleBy is ref's slowdown to the power share; 1 when the share is 0.
func scaleBy(ref *hostRef, share float64) float64 {
	if share == 0 {
		return 1
	}
	return math.Pow(ref.slowdown(), share)
}

// hostNote says what a scaled number was before scaling.
func hostNote(measured, slow float64, unit string) string {
	if slow == 1 {
		return "as measured"
	}
	return fmt.Sprintf("measured %.4f %s, divided by %.3f for the host", measured, unit, slow)
}

// setLatency records the median of one role's latencies, given per window,
// over slow (see slow). The tail estimate and the upper percentiles ride
// along in the note, as measured: they are printed with every run and kept
// in the result file, but are not metrics of BENCHMARK.json, because on a
// two-core shared host their spread between runs of the same code (30 % to
// 90 % of the median) is wider than any bound the contract allows.
func (r *runResult) setLatency(role string, windows [][]float64, slow float64) {
	all := sortedCopy(flatten(windows))
	t, rule := tail(windows)
	p50 := percentile(all, 0.5)
	r.set(role+"_p50_ms", p50/slow, len(all), fmt.Sprintf("%s; tail %.4f (%s); p90 %.4f p95 %.4f p99 %.4f max %.4f",
		hostNote(p50, slow, "ms"), t, rule, percentile(all, 0.9), percentile(all, 0.95), percentile(all, 0.99), percentile(all, 1)))
}

// setRate records the primary rate, times slow.
func (r *runResult) setRate(perS float64, samples int, slow float64, what string) {
	note := "as measured"
	if slow != 1 {
		note = fmt.Sprintf("measured %.4f 1/s, multiplied by %.3f for the host", perS, slow)
	}
	r.set("primary_per_s", perS*slow, samples, note+"; "+what)
}

// tally adds a phase's counts to the run's totals.
func (r *runResult) tally(name string, sent, ok int) {
	r.Phases = append(r.Phases, phaseCount{Name: name, Sent: sent, OK: ok, Failed: sent - ok})
	r.Attempted += sent
	r.Failed += sent - ok
}

func (r *runResult) tallyPhase(name string, ph *phase) {
	sent, ok := ph.counts()
	r.tally(name, sent, ok)
}

// lateLimitMS is the generator's own lateness (p99) above which a run's
// latencies are not trusted: the run is reported invalid, not slow.
const lateLimitMS = 5

func (r *runResult) checkLate(ph ...*phase) {
	all, own := lateP99(ph...)
	r.check("valid: generator's own lateness within limit", own <= lateLimitMS,
		"p99 %.3f ms with a connection free, limit %d ms; %.3f ms over all sends", own, lateLimitMS, all)
}

// print writes the run for a reader: every metric by name with its unit
// and sample count, the phase tallies and the checks.
func (r *runResult) print(w io.Writer) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s  seed=%d  seconds=%g  %s  schedule=%s\n", r.Workload, r.Seed, r.Seconds, mode, r.ScheduleHash)
	for i, role := range []string{"primary", "secondary", "tertiary"} {
		fmt.Fprintf(w, "   %-9s = %s\n", role, r.Operations[i])
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := r.Metrics[n]
		fmt.Fprintf(w, "   %-36s %14.4f %-6s n=%-6d %s\n", n, v.Value, v.Unit, v.Samples, v.Note)
	}
	for _, p := range r.Phases {
		fmt.Fprintf(w, "   phase %-16s sent=%d ok=%d failed=%d\n", p.Name, p.Sent, p.OK, p.Failed)
	}
	for _, c := range r.Checks {
		verdict := "ok"
		if !c.OK {
			verdict = "FAILED"
		}
		fmt.Fprintf(w, "   check %-6s %s: %s\n", verdict, c.Name, c.Detail)
	}
}

// env is what a run needs from its caller.
type env struct {
	sz        sizes
	seed      uint64
	seconds   float64
	binDir    string // the built programs; "" hosts the layers in this process
	work      string // scratch directory of this run, removed at the end
	traceDir  string // where a traced run writes trace-<workload>.json
	conns     int
	setupReps int
}

func (e *env) open() time.Duration {
	return time.Duration(e.seconds * e.sz.OpenShare * float64(time.Second))
}

func (e *env) closed() time.Duration {
	return time.Duration(e.seconds * (1 - e.sz.OpenShare) * float64(time.Second))
}

// start brings a topology up as child processes, or in this process when
// the run has no binaries.
func (e *env) start(topo topology, f *files, data *corpus.Dataset) (*deployment, error) {
	if e.binDir == "" {
		h, err := startHosted(topo, f, data, e.sz, hooks{})
		if err != nil {
			return nil, err
		}
		return &h.deployment, nil
	}
	return startChildren(e.binDir, topo, f, e.sz)
}

// timeSetup runs setup e.setupReps times and records setup_s: the median
// duration over the host's slowdown (to the power setupShare), which
// cacheWalk reads before every repetition and after the last. Each setup returns its teardown; all but
// the last are torn down at once, and the last one's is returned, safe to
// call twice, for the caller.
func (e *env) timeSetup(r *runResult, setup func(dir string) (teardown func() error, err error)) (func() error, error) {
	var secs []float64
	var teardown func() error
	ref := walkRef()
	for rep := 0; rep < e.setupReps; rep++ {
		if teardown != nil {
			if err := teardown(); err != nil {
				return nil, err
			}
		}
		dir := filepath.Join(e.work, fmt.Sprintf("setup%d", rep))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		ref.walk(setupWalks)
		t0 := time.Now()
		var err error
		if teardown, err = setup(dir); err != nil {
			return nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	ref.walk(setupWalks)
	s, slow := stats.Median(secs), scaleBy(ref, setupShare)
	r.set("setup_s", s/slow, e.setupReps, hostNote(s, slow, "s"))
	var once sync.Once
	var terr error
	return func() error {
		once.Do(func() { terr = teardown() })
		return terr
	}, nil
}

// setupWalks is the number of cacheWalk readings around each set-up.
const setupWalks = 5

func finite(xs []float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return len(xs) > 0
}

func runWorkload(e *env, name string, traced bool) (*runResult, error) {
	// Each run works in a directory of its own: the suite runs eight on
	// one env, and a WAL or a publish directory left by one run must not
	// be recovered by the next.
	own := *e
	own.work = filepath.Join(e.work, fmt.Sprintf("%s-trace%v", name, traced))
	e = &own
	if _, ok := opNames[name]; ok && traced {
		return runTraced(e, name)
	}
	switch name {
	case wTrainXL:
		return runTrain(e)
	case wScoreHot:
		return runScore(e, true)
	case wScoreCold:
		return runScore(e, false)
	case wIngestFrsh:
		return runIngest(e)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}
