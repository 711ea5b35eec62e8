// Command coldtrain fits a COLD model to a dataset and writes the model
// as JSON, printing the convergence trace. Training can periodically
// checkpoint its full sampler state; an interrupted run (Ctrl-C) stops
// at the next sweep boundary, saves what it has, and can later be
// resumed bit-identically with -resume.
//
// Usage:
//
//	coldtrain -data dataset.json -comms 6 -topics 8 -iters 60 -out model.json
//	coldtrain -data dataset.json -comms 6 -topics 8 -workers 4 -out model.json
//	coldtrain -data dataset.json -checkpoint-dir ckpt -checkpoint-every 10 -out model.json
//	coldtrain -data dataset.json -resume ckpt/sweep-00000030.ckpt -out model.json
//
// Every sweep emits a structured log record (duration, log-likelihood,
// samples) through -log-format/-log-level, and the run exports
// cold_train_* / cold_gas_* metrics: -metrics-every dumps the
// Prometheus text to stderr periodically, and -debug-addr serves it
// live together with net/http/pprof for profiling long runs.
//
// Robustness knobs:
//
//	-keep-checkpoints N   retain the N newest checkpoint generations
//	                      (older ones are GC'd after each save)
//	-sweep-timeout D      bound each parallel GAS phase at D; a sweep
//	                      that overruns is aborted and retried from the
//	                      last in-memory snapshot. Also arms a global
//	                      watchdog (budget 4×D) that fails the whole run
//	                      fast when no sweep completes — the safety net
//	                      for serial runs and non-GAS hangs.
//	-stall-grace D        declare a GAS worker stalled after D without
//	                      progress, independent of total phase duration
//
// Resuming from a directory picks the newest checkpoint generation that
// passes checksum validation: corrupt newer generations (torn write,
// bit flip) are quarantined aside with a .bad suffix and the run falls
// back to the previous valid one.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"github.com/cold-diffusion/cold/internal/core"
	"github.com/cold-diffusion/cold/internal/corpus"
	"github.com/cold-diffusion/cold/internal/obs"
	"github.com/cold-diffusion/cold/internal/supervise"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("coldtrain: ")

	dataPath := flag.String("data", "dataset.json", "input dataset (from coldgen)")
	comms := flag.Int("comms", 6, "number of communities C")
	topics := flag.Int("topics", 8, "number of topics K")
	iters := flag.Int("iters", 60, "Gibbs sweeps")
	burnIn := flag.Int("burnin", 0, "burn-in sweeps (default iters/2)")
	workers := flag.Int("workers", 1, ">1 uses the parallel GAS sampler")
	noLinks := flag.Bool("nolink", false, "train the COLD-NoLink ablation")
	seed := flag.Uint64("seed", 1, "sampler seed")
	out := flag.String("out", "model.json", "output model path")
	quiet := flag.Bool("q", false, "suppress the likelihood trace")
	ckptDir := flag.String("checkpoint-dir", "", "directory for periodic sampler checkpoints")
	ckptEvery := flag.Int("checkpoint-every", 10, "sweeps between checkpoints")
	keepCkpts := flag.Int("keep-checkpoints", 3, "checkpoint generations retained in -checkpoint-dir")
	sweepTimeout := flag.Duration("sweep-timeout", 0, "deadline per parallel GAS phase; also arms a global training watchdog at 4x this (0 disables)")
	stallGrace := flag.Duration("stall-grace", 0, "max GAS worker silence before the sweep is aborted and retried (0 disables)")
	resume := flag.String("resume", "", "checkpoint file (or directory of them) to resume from")
	logFormat := flag.String("log-format", "text", "log format: text or json")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	metricsEvery := flag.Duration("metrics-every", 0, "interval between Prometheus metric dumps to stderr (0 disables)")
	debugAddr := flag.String("debug-addr", "", "optional listener for pprof + expvar + /metrics during training")
	flag.Parse()

	// SIGINT/SIGTERM cancel the context; training stops at the next
	// sweep boundary and returns a usable partial model.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	data, err := corpus.LoadFile(*dataPath)
	if err != nil {
		log.Fatal(err)
	}

	level := obs.ParseLevel(*logLevel)
	if *quiet && *logLevel == "info" {
		// -q mutes the per-sweep records too, unless -log-level asks
		// for them explicitly.
		level = obs.ParseLevel("warn")
	}
	logger := obs.NewLogger(os.Stderr, *logFormat, level)
	reg := obs.NewRegistry()
	opts := core.RunOptions{
		CheckpointDir:   *ckptDir,
		CheckpointEvery: *ckptEvery,
		KeepCheckpoints: *keepCkpts,
		SweepTimeout:    *sweepTimeout,
		StallGrace:      *stallGrace,
		Observer:        core.NewTrainObserver(reg),
		Logger:          logger,
	}

	if *debugAddr != "" {
		ln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			log.Fatalf("debug listener: %v", err)
		}
		logger.Info("debug listener up (pprof, expvar, metrics)", "addr", ln.Addr().String())
		go func() { _ = http.Serve(ln, obs.DebugMux(reg)) }()
	}
	if *metricsEvery > 0 {
		go func() {
			t := time.NewTicker(*metricsEvery)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					fmt.Fprintln(os.Stderr, "--- metrics ---")
					_ = reg.WritePrometheus(os.Stderr)
				}
			}
		}()
	}

	var model *core.Model
	var stats *core.TrainStats
	train := func(ctx context.Context) error {
		var terr error
		if *resume != "" {
			path := *resume
			if fi, serr := os.Stat(path); serr == nil && fi.IsDir() {
				if opts.CheckpointDir == "" {
					// Keep checkpointing where the interrupted run left off.
					opts.CheckpointDir = path
				}
				// Directory resume walks back to the newest generation
				// that validates, quarantining corrupt ones aside.
				model, stats, terr = core.ResumeTrainingLatest(ctx, path, data, opts)
				return terr
			}
			if opts.CheckpointDir == "" {
				opts.CheckpointDir = filepath.Dir(path)
			}
			model, stats, terr = core.ResumeTraining(ctx, path, data, opts)
			return terr
		}
		cfg := core.DefaultConfig(*comms, *topics)
		cfg.Iterations = *iters
		cfg.BurnIn = *burnIn
		if cfg.BurnIn == 0 {
			cfg.BurnIn = *iters / 2
		}
		cfg.Workers = *workers
		cfg.UseLinks = !*noLinks
		cfg.Seed = *seed
		model, stats, terr = core.TrainRun(ctx, data, cfg, opts)
		return terr
	}

	if *sweepTimeout > 0 {
		// Global training watchdog: the GAS supervisor covers hung
		// workers inside a parallel sweep, but a serial run (or a hang
		// outside the GAS engine) would still block forever. The heartbeat
		// beats once per completed sweep attempt; 4x the per-phase
		// deadline comfortably covers one full sweep plus likelihood
		// evaluation, so silence past the budget means the run is wedged
		// and failing fast beats hanging a training cluster slot.
		hb := &supervise.Heartbeat{}
		opts.Heartbeat = hb
		budget := 4 * *sweepTimeout
		err = supervise.Run(ctx, supervise.Config{
			Budget: budget,
			OnStall: func(silent time.Duration) {
				logger.Error("training watchdog tripped", "silent", silent.Round(time.Millisecond), "budget", budget)
			},
		}, hb, train)
		if errors.Is(err, supervise.ErrStalled) {
			// The wedged training goroutine may be leaked and still
			// writing model/stats; exit without touching them.
			log.Fatal(err)
		}
	} else {
		err = train(ctx)
	}

	interrupted := errors.Is(err, context.Canceled)
	if err != nil && !interrupted {
		log.Fatal(err)
	}
	if !*quiet && stats != nil {
		for i, ll := range stats.Likelihood {
			if i%5 == 0 || i == len(stats.Likelihood)-1 {
				fmt.Fprintf(os.Stderr, "sweep %3d  loglik %.1f\n", i, ll)
			}
		}
		d := core.Diagnose(stats.Likelihood)
		fmt.Fprintf(os.Stderr, "diagnostics: converged@sweep=%d geweke_z=%.2f improvement=%.0f\n",
			d.ConvergedAt, d.GewekeZ, d.Improvement)
		if stats.Rollbacks > 0 {
			fmt.Fprintf(os.Stderr, "recovered from %d divergence rollback(s)\n", stats.Rollbacks)
		}
		if stats.Stalls > 0 {
			fmt.Fprintf(os.Stderr, "recovered from %d stalled sweep(s)\n", stats.Stalls)
		}
		if stats.CheckpointFailures > 0 {
			fmt.Fprintf(os.Stderr, "tolerated %d checkpoint write failure(s)\n", stats.CheckpointFailures)
		}
		if len(stats.Quarantined) > 0 {
			fmt.Fprintf(os.Stderr, "quarantined %d corrupt checkpoint(s): %v\n", len(stats.Quarantined), stats.Quarantined)
		}
	}
	if interrupted {
		if stats != nil && stats.LastCheckpoint != "" {
			fmt.Fprintf(os.Stderr, "interrupted; resume with -resume %s\n", stats.LastCheckpoint)
		} else {
			fmt.Fprintln(os.Stderr, "interrupted; no checkpoint was written (set -checkpoint-dir)")
		}
		if model == nil {
			log.Fatal("interrupted before the first post-burn-in sample; no model to save")
		}
		fmt.Fprintln(os.Stderr, "saving partial model averaged from samples so far")
	}
	if err := model.SaveFile(*out); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "trained C=%d K=%d in %v (%d samples averaged); wrote %s\n",
		model.Cfg.C, model.Cfg.K, stats.Elapsed.Round(1e6), stats.Samples, *out)
}
