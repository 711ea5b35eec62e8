package core

import (
	"context"
	"fmt"
	"time"

	"github.com/cold-diffusion/cold/internal/corpus"
)

// TrainStats reports what happened during training: the per-sweep
// log-likelihood trace (the convergence monitor of §4.3), timing, and the
// resilience runtime's bookkeeping.
type TrainStats struct {
	Likelihood []float64
	Sweeps     int
	Samples    int // thinned samples averaged into the final estimates
	Elapsed    time.Duration
	// BuildSeconds is the time spent constructing samplers — the initial
	// one plus every rebuild after a stall. For the parallel sampler it
	// covers the Fig 4 graph, its edge colouring and the shard plan.
	BuildSeconds float64

	Rollbacks          int      // divergence recoveries performed
	Stalls             int      // supervisor-detected stalls recovered by sampler rebuild
	CheckpointFailures int      // tolerated checkpoint-write failures
	Quarantined        []string // corrupt generations moved aside during a latest-valid resume
	ResumedAt          int      // sweep the run resumed from (0 for a fresh run)
	LastCheckpoint     string   // path of the newest checkpoint written, if any
}

// Train fits COLD to the dataset with the configured sampler schedule and
// returns the averaged posterior estimates. For cfg.Workers > 1 it uses
// the parallel GAS sampler; otherwise the exact serial collapsed Gibbs
// sampler.
func Train(data *corpus.Dataset, cfg Config) (*Model, error) {
	m, _, err := TrainWithStats(data, cfg)
	return m, err
}

// TrainWithStats is Train plus the convergence/timing trace.
func TrainWithStats(data *corpus.Dataset, cfg Config) (*Model, *TrainStats, error) {
	return runTraining(context.Background(), data, cfg, RunOptions{}, nil)
}

// TrainContext is Train under a context: on cancellation the sampler
// stops cleanly at the next sweep boundary and returns the model averaged
// from the thinned samples collected so far, together with the context's
// error. See TrainRun for checkpointing and divergence recovery.
func TrainContext(ctx context.Context, data *corpus.Dataset, cfg Config) (*Model, error) {
	m, _, err := TrainRun(ctx, data, cfg, RunOptions{})
	return m, err
}

// TrainRun is the full resilient training entry point: context
// cancellation at sweep boundaries, periodic full-state checkpoints,
// divergence guards with rollback, and worker-panic containment, all
// configured by opts. On cancellation it returns the partial model
// alongside the context error; on success err is nil.
func TrainRun(ctx context.Context, data *corpus.Dataset, cfg Config, opts RunOptions) (*Model, *TrainStats, error) {
	return runTraining(ctx, data, cfg, opts, nil)
}

// ResumeTraining continues a run from a checkpoint written by TrainRun.
// The sampler schedule, hyper-parameters and seed are taken from the
// checkpoint, so resuming an interrupted run produces a model
// bit-identical to the uninterrupted run (absent divergence rollbacks,
// which reseed). The dataset must be the one the checkpoint was taken
// against.
func ResumeTraining(ctx context.Context, path string, data *corpus.Dataset, opts RunOptions) (*Model, *TrainStats, error) {
	loadStart := time.Now()
	ck, err := LoadCheckpoint(path)
	if err != nil {
		return nil, nil, err
	}
	opts.Observer.checkpointLoaded(time.Since(loadStart).Seconds())
	return runTraining(ctx, data, ck.Cfg, opts, ck)
}

// ResumeTrainingLatest continues a run from the newest *valid*
// checkpoint generation in dir: generations that fail validation are
// walked past (corrupt ones quarantined aside with a .bad suffix) until
// one loads cleanly, so a torn or bit-flipped newest file costs at most
// CheckpointEvery sweeps of redone work instead of the whole run.
// Resuming from an older valid generation keeps the bit-identical
// resume guarantee — the generation is a complete state snapshot, so
// training replays exactly the trajectory the uninterrupted run took
// from that sweep.
func ResumeTrainingLatest(ctx context.Context, dir string, data *corpus.Dataset, opts RunOptions) (*Model, *TrainStats, error) {
	loadStart := time.Now()
	ck, path, quarantined, err := LoadLatestCheckpoint(dir)
	opts.Observer.checkpointQuarantined(len(quarantined))
	if opts.Logger != nil {
		for _, bad := range quarantined {
			opts.Logger.Warn("corrupt checkpoint generation quarantined", "path", bad)
		}
	}
	if err != nil {
		return nil, nil, err
	}
	opts.Observer.checkpointLoaded(time.Since(loadStart).Seconds())
	if opts.Logger != nil {
		opts.Logger.Info("resuming from latest valid generation", "path", path, "sweep", ck.Sweep, "quarantined", len(quarantined))
	}
	model, stats, err := runTraining(ctx, data, ck.Cfg, opts, ck)
	if stats != nil {
		stats.Quarantined = quarantined
	}
	return model, stats, err
}

func validateTrainInputs(data *corpus.Dataset, cfg Config) (Config, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return cfg, err
	}
	if err := data.Validate(); err != nil {
		return cfg, err
	}
	if len(data.Posts) == 0 {
		return cfg, fmt.Errorf("core: cannot train on a dataset with no posts")
	}
	return cfg, nil
}
