package cold

import (
	"log/slog"
	"time"

	"github.com/cold-diffusion/cold/internal/core"
	"github.com/cold-diffusion/cold/internal/obs"
)

// Registry collects metric instruments and renders them in Prometheus
// text exposition format (WritePrometheus / Handler). Create one with
// NewRegistry, pass it to NewTrainObserver, and mount Handler on an HTTP
// mux to scrape training metrics.
type Registry = obs.Registry

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry { return obs.NewRegistry() }

// TrainObserver is the training-side instrument set (cold_train_* and
// cold_gas_* metric families): per-sweep duration and likelihood,
// checkpoint I/O timings, rollback/resume counters, and GAS worker
// busy/barrier-wait histograms for parallel runs. Build one with
// NewTrainObserver and attach it with WithObserver.
type TrainObserver = core.TrainObserver

// NewTrainObserver registers the training instrument set on reg.
func NewTrainObserver(reg *Registry) *TrainObserver { return core.NewTrainObserver(reg) }

// TrainOption customises a Train run. The zero set of options trains in
// the foreground with no checkpoints, no metrics and no logging.
type TrainOption func(*trainSettings)

type trainSettings struct {
	stats *TrainStats
	run   RunOptions
}

// WithStats copies the run's convergence/timing trace into *st before
// Train returns. st must be non-nil.
func WithStats(st *TrainStats) TrainOption {
	return func(s *trainSettings) { s.stats = st }
}

// WithCheckpoints writes a full sampler-state checkpoint into dir every
// `every` sweeps (every <= 0 uses the default interval). Checkpoints
// enable ResumeTraining and automatic divergence rollback.
func WithCheckpoints(dir string, every int) TrainOption {
	return func(s *trainSettings) {
		s.run.CheckpointDir = dir
		s.run.CheckpointEvery = every
	}
}

// WithObserver streams run metrics (sweep durations, likelihood,
// rollbacks, checkpoint I/O, GAS worker timings) into obs's registry.
func WithObserver(obs *TrainObserver) TrainOption {
	return func(s *trainSettings) { s.run.Observer = obs }
}

// WithLogger emits one structured record per sweep plus lifecycle
// events (checkpoints, rollbacks, resume) through l.
func WithLogger(l *slog.Logger) TrainOption {
	return func(s *trainSettings) { s.run.Logger = l }
}

// WithRetention keeps the n newest checkpoint generations on disk;
// older ones are garbage-collected after each successful save (n <= 0
// uses the default of 3). More generations buy deeper fallback when the
// newest file is corrupted at resume time.
func WithRetention(n int) TrainOption {
	return func(s *trainSettings) { s.run.KeepCheckpoints = n }
}

// WithSupervision arms the training stall supervisor for parallel runs:
// each GAS phase must finish within sweepTimeout, and every worker must
// make progress at least every stallGrace. A tripped bound aborts the
// sweep, rebuilds the sampler from the last in-memory snapshot and
// retries, preserving the deterministic trajectory (no reseed). Zero
// durations disable the respective bound.
func WithSupervision(sweepTimeout, stallGrace time.Duration) TrainOption {
	return func(s *trainSettings) {
		s.run.SweepTimeout = sweepTimeout
		s.run.StallGrace = stallGrace
	}
}

// WithRunOptions replaces the full resilience configuration (rollback
// policy, checkpoint retention, divergence threshold, stall
// supervision) in one call. Options applied after it still override
// individual fields.
func WithRunOptions(o RunOptions) TrainOption {
	return func(s *trainSettings) { s.run = o }
}
