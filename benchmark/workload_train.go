package main

import (
	"context"
	"fmt"
	"log/slog"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"github.com/cold-diffusion/cold/internal/core"
	"github.com/cold-diffusion/cold/internal/serve"
)

// sweepLog is a slog.Handler that keeps the duration of every sweep a
// training run reports: the "sweep" record and its "seconds" attribute are
// what `coldtrain -log-format json` prints, one line per sweep. The record
// is logged between two sweeps, on the training loop's own goroutine, which
// is where the host reference is read: one cacheWalk a sweep.
type sweepLog struct {
	mu   sync.Mutex
	secs []float64
	ref  *hostRef
}

func (h *sweepLog) Enabled(_ context.Context, l slog.Level) bool { return l >= slog.LevelInfo }
func (h *sweepLog) WithAttrs([]slog.Attr) slog.Handler           { return h }
func (h *sweepLog) WithGroup(string) slog.Handler                { return h }
func (h *sweepLog) Handle(_ context.Context, r slog.Record) error {
	if r.Message != "sweep" {
		return nil
	}
	r.Attrs(func(a slog.Attr) bool {
		if a.Key == "seconds" {
			h.mu.Lock()
			h.secs = append(h.secs, a.Value.Float64())
			h.ref.walk(1)
			h.mu.Unlock()
			return false
		}
		return true
	})
	return nil
}

// trainWorkers is the worker count of the parallel training run: nproc,
// and at least 2 so that it is the parallel program that is measured.
func trainWorkers() int { return max(2, runtime.NumCPU()) }

// trained is one timed core.TrainRun.
type trained struct {
	model *core.Model
	stats *core.TrainStats
	wall  float64   // seconds
	sweep []float64 // ms per sweep
	ref   *hostRef  // read once a sweep
}

func (t *trained) tokensPerS(tokens int) float64 {
	return float64(tokens) * float64(t.stats.Sweeps) / t.wall
}

func timedTrain(tc *trainCorpus, cfg core.Config, observer *core.TrainObserver) (*trained, error) {
	lg := &sweepLog{ref: walkRef()}
	t0 := time.Now()
	m, st, err := core.TrainRun(context.Background(), tc.data, cfg,
		core.RunOptions{Logger: slog.New(lg), Observer: observer})
	if err != nil {
		return nil, fmt.Errorf("TrainRun workers=%d: %w", cfg.Workers, err)
	}
	t := &trained{model: m, stats: st, wall: time.Since(t0).Seconds(), ref: lg.ref}
	for _, s := range lg.secs {
		t.sweep = append(t.sweep, s*1000)
	}
	if len(t.sweep) != st.Sweeps {
		return nil, fmt.Errorf("TrainRun workers=%d: %d sweep log records for %d sweeps", cfg.Workers, len(t.sweep), st.Sweeps)
	}
	return t, nil
}

// Bands of the model-quality guards on the full train_xl corpus, fixed
// from five seeds at the commit that added the benchmark (README, "Bands").
// The miniature corpus of the smoke test only has to be finite and better
// than chance.
const (
	perplexityMax = 3400.0
	nmiMin        = 0.55
)

// checkModel runs the quality guards on a trained model.
func checkModel(r *runResult, e *env, tc *trainCorpus, label string, t *trained) {
	r.check(label+": likelihood finite", finite(t.stats.Likelihood), "%d sweeps", t.stats.Sweeps)
	err := t.model.Validate()
	r.check(label+": model valid", err == nil, "%v", err)
	ppl := t.model.Perplexity(tc.heldUsers, tc.heldPosts)
	score := nmi(t.model, tc.gt)
	pplMax, nmiLow := float64(tc.data.V), 0.05
	if e.sz.TrainCorpus.V == fullSizes(0).TrainCorpus.V {
		pplMax, nmiLow = perplexityMax, nmiMin
	}
	r.check(label+": held-out perplexity in band", finite([]float64{ppl}) && ppl < pplMax, "%.1f, below %.0f", ppl, pplMax)
	r.check(label+": community NMI in band", score >= nmiLow, "%.3f, at least %.2f", score, nmiLow)
}

// checkIdentity trains a subset of the corpus at two worker counts of the
// parallel program and requires the likelihood traces to be bit-identical.
// TrainRun picks the serial sampler at one worker, so the pair is
// (workers, workers+1).
func checkIdentity(r *runResult, e *env, tc *trainCorpus) error {
	sub := &trainCorpus{data: tc.data.Subset(e.sz.IdentityPosts, len(tc.data.Links))}
	w := trainWorkers()
	var traces [2][]float64
	for i := range traces {
		cfg := trainConfig(e.sz.TrainCorpus.C, e.sz.TrainCorpus.K, 4, w+i, e.seed)
		_, st, err := core.TrainRun(context.Background(), sub.data, cfg, core.RunOptions{})
		if err != nil {
			return fmt.Errorf("identity check workers=%d: %w", w+i, err)
		}
		traces[i] = st.Likelihood
	}
	same := len(traces[0]) == len(traces[1])
	for i := 0; same && i < len(traces[0]); i++ {
		same = traces[0][i] == traces[1][i]
	}
	r.check("parallel chain bit-identical across worker counts", same, "workers %d and %d, %d sweeps", w, w+1, len(traces[0]))
	return nil
}

// publish times writing the trained model and loading it the way a
// serving replica does, reps times: the trained-to-servable step. It reads
// the host reference before each.
func publish(m *core.Model, dir string, reps int) ([]float64, *hostRef, error) {
	path := filepath.Join(dir, "trained.json")
	mgr := serve.NewManager(serve.ManagerConfig{Path: path, Logf: quiet})
	ref := walkRef()
	var ms []float64
	for i := 0; i < reps; i++ {
		ref.walk(1)
		t0 := time.Now()
		if err := m.SaveFile(path); err != nil {
			return nil, nil, err
		}
		if err := mgr.Reload(); err != nil {
			return nil, nil, err
		}
		ms = append(ms, float64(time.Since(t0))/1e6)
	}
	return ms, ref, nil
}

func (e *env) trainSweeps() int {
	return max(2, int(e.seconds*e.sz.TrainSweepsPerSecond+0.5))
}

// runTrain is train_xl: two full core.TrainRun calls over a corpus whose
// topic-word counters do not fit the L2 cache, with nothing else running.
func runTrain(e *env) (*runResult, error) {
	r := newResult(e, wTrainXL, false)
	var tc *trainCorpus
	_, err := e.timeSetup(r, func(string) (func() error, error) {
		var err error
		tc, err = fastCorpus(e.sz.TrainCorpus)
		return func() error { return nil }, err
	})
	if err != nil {
		return nil, err
	}
	sweeps := e.trainSweeps()
	r.ScheduleHash = fmt.Sprintf("train:%dx%d", tc.tokens, sweeps)
	c, k := e.sz.TrainCorpus.C, e.sz.TrainCorpus.K

	par, err := timedTrain(tc, trainConfig(c, k, sweeps, trainWorkers(), e.seed), nil)
	if err != nil {
		return nil, err
	}
	ser, err := timedTrain(tc, trainConfig(c, k, sweeps, 1, e.seed), nil)
	if err != nil {
		return nil, err
	}
	pub, pubRef, err := publish(par.model, e.work, e.sz.PublishReps)
	if err != nil {
		return nil, fmt.Errorf("publish: %w", err)
	}

	r.setLatency("primary", [][]float64{par.sweep}, r.slow(0, par.ref))
	r.setRate(par.tokensPerS(tc.tokens), par.stats.Sweeps, r.slow(3, par.ref),
		fmt.Sprintf("tokens/s, %d workers; serial %.0f as measured", trainWorkers(), ser.tokensPerS(tc.tokens)))
	r.setLatency("secondary", [][]float64{ser.sweep}, r.slow(1, ser.ref))
	r.setLatency("tertiary", [][]float64{pub}, r.slow(2, pubRef))
	r.tally("train parallel", par.stats.Sweeps, par.stats.Sweeps)
	r.tally("train serial", ser.stats.Sweeps, ser.stats.Sweeps)
	r.tally("publish", len(pub), len(pub))

	checkModel(r, e, tc, "parallel", par)
	checkModel(r, e, tc, "serial", ser)
	if err := checkIdentity(r, e, tc); err != nil {
		return nil, err
	}
	return r, nil
}
