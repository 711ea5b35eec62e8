package core

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/cold-diffusion/cold/internal/faultinject"
	"github.com/cold-diffusion/cold/internal/obs"
)

// goroutinesSettleTo reads the goroutine count until it has fallen to
// want or two seconds have passed — an exited goroutine stays counted
// until the scheduler has reaped it — and returns the last reading.
func goroutinesSettleTo(want int) int {
	deadline := time.Now().Add(2 * time.Second)
	n := runtime.NumGoroutine()
	for n > want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// A parallel run must take its scatter pool down with it: the pool's
// goroutines pin the graph, the shared state and every worker's delta
// buffers, and a process may train many times.
func TestParallelTrainRunLeaksNoGoroutines(t *testing.T) {
	data := runtimeData(t)
	before := runtime.NumGoroutine()
	if _, _, err := TrainRun(context.Background(), data, runtimeConfig(4), RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := BenchParallelSweeps(data, runtimeConfig(4), 0, 1); err != nil {
		t.Fatal(err)
	}
	if after := goroutinesSettleTo(before); after > before {
		t.Fatalf("%d goroutines before a Workers=4 TrainRun, %d after", before, after)
	}
}

// The same across a stall rebuild: the poisoned sampler's pool is closed
// when it is replaced, and the rebuilt one when the run returns. The
// hung worker itself can only be abandoned; the test frees it.
func TestStallRebuildLeaksNoGoroutines(t *testing.T) {
	data := runtimeData(t)
	before := runtime.NumGoroutine()

	defer faultinject.Reset()
	release := make(chan struct{})
	var hung atomic.Bool
	faultinject.Set(faultinject.GasScatterWorker, func(args ...any) {
		if args[0].(int) == 1 && hung.CompareAndSwap(false, true) {
			<-release
		}
	})
	_, stats, err := TrainRun(context.Background(), data, runtimeConfig(4), RunOptions{
		StallGrace:   100 * time.Millisecond,
		MaxRollbacks: 10,
	})
	close(release)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Stalls == 0 {
		t.Fatal("hung worker produced no stall; the rebuild path went unexercised")
	}
	if after := goroutinesSettleTo(before); after > before {
		t.Fatalf("%d goroutines before a stall-recovery run, %d after", before, after)
	}
}

// Sampler construction is on the clock wherever a run reports: in
// TrainStats, on the observer's gauge and as one structured log record
// sizing the schedule that was built.
func TestSamplerBuildIsReported(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var logs bytes.Buffer
		observer := NewTrainObserver(obs.NewRegistry())
		_, stats, err := TrainRun(context.Background(), runtimeData(t), runtimeConfig(workers), RunOptions{
			Observer: observer,
			Logger:   slog.New(slog.NewJSONHandler(&logs, nil)),
		})
		if err != nil {
			t.Fatal(err)
		}
		if stats.BuildSeconds <= 0 || stats.BuildSeconds > stats.Elapsed.Seconds() {
			t.Fatalf("workers=%d: BuildSeconds %v outside (0, Elapsed %v]", workers, stats.BuildSeconds, stats.Elapsed)
		}
		if got := observer.SamplerBuild.Value(); got != stats.BuildSeconds {
			t.Fatalf("workers=%d: gauge reads %v, TrainStats %v", workers, got, stats.BuildSeconds)
		}
		var built []map[string]any
		for _, line := range bytes.Split(bytes.TrimSpace(logs.Bytes()), []byte("\n")) {
			var rec map[string]any
			if err := json.Unmarshal(line, &rec); err != nil {
				t.Fatal(err)
			}
			if rec["msg"] == "sampler built" {
				built = append(built, rec)
			}
		}
		if len(built) != 1 {
			t.Fatalf("workers=%d: %d \"sampler built\" records, want 1", workers, len(built))
		}
		rec := built[0]
		if rec["seconds"] != stats.BuildSeconds {
			t.Fatalf("workers=%d: record carries seconds=%v, TrainStats %v", workers, rec["seconds"], stats.BuildSeconds)
		}
		sized := rec["edges"].(float64) > 0 && rec["colours"].(float64) > 0 &&
			rec["batches"].(float64) > 0 && rec["shards"].(float64) > 0
		if sized != (workers > 1) {
			t.Fatalf("workers=%d: schedule sizes in record: %v", workers, rec)
		}
	}
}
