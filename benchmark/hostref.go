package main

import (
	"context"
	"errors"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/cold-diffusion/cold/internal/stats"
)

// The host this benchmark runs on is two virtual CPUs of a shared machine.
// What the neighbours do to the shared caches and to the sibling hardware
// threads moves every compute-bound time by 10 % to 40 %, for seconds or
// for minutes at a stretch — longer than a run, so no estimator inside a
// run removes it. What does repeat is a time relative to a fixed piece of
// work of the same kind, owned by the benchmark and timed beside the
// measured operations: a **reference**. A run reports how much slower than
// nominal its reference ran (the host's slowdown) and divides the times of
// its compute-bound operations by it, so a metric reads in the
// milliseconds of a host at nominal speed. The code under test cannot move
// a reference; only the host can. Times that are set by the program's own
// timers do not stretch with the host and are reported as measured, and
// times that are only part compute are divided by a root of the slowdown
// (hostShare in spec.go says which is which).
//
// There are two references. Training and set-up are walks over tables that
// miss the first-level cache: their reference is cacheWalk.
// A request is a loopback HTTP round trip between processes: its reference
// is the same round trip to a server that does nothing (the echo), a
// process of its own, sent on the same connections inside the same
// schedule.

// cacheWalk times a fixed pseudo-random read-modify-write walk over a
// 2 MB table, in milliseconds.
func cacheWalk() float64 {
	walk(walkSteps / 3) // whatever ran before has evicted the table: fetch it back, untimed
	t0 := time.Now()
	walk(walkSteps)
	return float64(time.Since(t0)) / 1e6
}

func walk(steps int) {
	x, sum, mask := walkState, uint64(0), uint64(len(walkTable)-1)
	for i := 0; i < steps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		sum += walkTable[x&mask]
		walkTable[(x>>20)&mask] = sum
	}
	walkState = x
}

const walkSteps = 600_000

var (
	walkTable = make([]uint64, 1<<18)
	walkState = uint64(88172645463325252)
)

// Nominal times of the references: what they read on the host the baseline
// was recorded on when it was quiet. They set the scale of the scaled
// metrics and nothing else; changing one moves every scaled metric by the
// same factor on both sides of any comparison made with one benchmark.
const walkNominalMS = 2.55

// echoNominalMS is the nominal median of the reference round trip, by
// workload, in the open loop (with sleeps between sends) and in the closed
// loop (back to back).
var echoNominalMS = map[string][2]float64{
	wScoreHot:   {0.374, 0.196},
	wScoreCold:  {0.428, 0.265},
	wIngestFrsh: {0.430, 0.226},
}

// hostRef collects readings of a reference.
type hostRef struct {
	nominal float64
	ms      []float64
}

func walkRef() *hostRef { return &hostRef{nominal: walkNominalMS} }

// walk takes n readings of cacheWalk. Not safe for concurrent use: the
// walk has one table.
func (h *hostRef) walk(n int) {
	for i := 0; i < n; i++ {
		h.ms = append(h.ms, cacheWalk())
	}
}

// slowdown is the median reading over the nominal one; 1 without readings.
func (h *hostRef) slowdown() float64 {
	if len(h.ms) == 0 || h.nominal <= 0 {
		return 1
	}
	return stats.Median(h.ms) / h.nominal
}

// echoBody is what a reference round trip carries each way: about the size
// of a 32-item batch and of its reply.
var echoBody = func() []byte {
	b := make([]byte, 2048)
	for i := range b {
		b[i] = 'a' + byte(i%26)
	}
	return b
}()

// echoHandler reads the request and answers with echoBody.
func echoHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(echoBody)
	})
}

// serveEcho is the benchmark's -echo mode: the reference server as a
// process of its own, until SIGTERM.
func serveEcho(addr string) error {
	srv := &http.Server{Addr: addr, Handler: echoHandler()}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	go func() {
		<-ctx.Done()
		srv.Close()
	}()
	if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
