package cold_test

import (
	"context"
	"errors"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	cold "github.com/cold-diffusion/cold"
)

// TestTrainOptions drives the functional-options entry point end to
// end: stats, checkpoints, metrics and structured logs from one call.
func TestTrainOptions(t *testing.T) {
	data, _, err := cold.Synthesize(cold.SynthConfig{U: 50, C: 3, K: 4, T: 8, V: 100,
		PostsPerUser: 6, WordsPerPost: 5, LinksPerUser: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	cfg := cold.DefaultConfig(3, 4)
	cfg.Iterations, cfg.BurnIn, cfg.Seed = 12, 6, 5

	dir := t.TempDir()
	reg := cold.NewRegistry()
	var logBuf strings.Builder
	var st cold.TrainStats
	model, err := cold.Train(context.Background(), data, cfg,
		cold.WithStats(&st),
		cold.WithCheckpoints(dir, 4),
		cold.WithObserver(cold.NewTrainObserver(reg)),
		cold.WithLogger(slog.New(slog.NewJSONHandler(&logBuf, nil))))
	if err != nil {
		t.Fatal(err)
	}
	if model == nil || st.Sweeps != 12 {
		t.Fatalf("model=%v sweeps=%d, want trained model with 12 sweeps", model, st.Sweeps)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no checkpoint files written (err=%v)", err)
	}
	var expo strings.Builder
	reg.WritePrometheus(&expo)
	for _, want := range []string{"cold_train_sweep_seconds", "cold_train_log_likelihood"} {
		if !strings.Contains(expo.String(), want) {
			t.Errorf("exposition missing %s", want)
		}
	}
	if !strings.Contains(logBuf.String(), `"log_likelihood"`) {
		t.Error("structured log missing per-sweep records")
	}

	// The options only observe: the identical run with none of them
	// attached but WithStats agrees sweep for sweep, likelihood for
	// likelihood.
	var st2 cold.TrainStats
	if _, err := cold.Train(context.Background(), data, cfg, cold.WithStats(&st2)); err != nil {
		t.Fatal(err)
	}
	if st2.Sweeps != st.Sweeps || !slices.Equal(st2.Likelihood, st.Likelihood) {
		t.Fatalf("bare run diverged: %d/%d sweeps, traces %v vs %v",
			st2.Sweeps, st.Sweeps, st2.Likelihood, st.Likelihood)
	}
}

// TestSentinelErrors pins that the exported sentinels survive wrapping
// through the internal layers and match with errors.Is.
func TestSentinelErrors(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.ckpt")
	if err := os.WriteFile(bad, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := cold.LoadCheckpoint(bad); !errors.Is(err, cold.ErrCorruptCheckpoint) {
		t.Errorf("LoadCheckpoint(garbage) = %v, want ErrCorruptCheckpoint", err)
	}

	data, _, err := cold.Synthesize(cold.SmallSynth(2))
	if err != nil {
		t.Fatal(err)
	}
	cfg := cold.DefaultConfig(3, 4)
	cfg.Iterations, cfg.BurnIn, cfg.Seed = 6, 3, 1
	model, err := cold.Train(context.Background(), data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := model.Validate(); err != nil {
		t.Fatalf("fresh model failed validation: %v", err)
	}
	model.Theta = nil
	if err := model.Validate(); !errors.Is(err, cold.ErrInvalidModel) {
		t.Errorf("Validate(broken) = %v, want ErrInvalidModel", err)
	}
}
