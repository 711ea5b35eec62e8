package gas

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ErrStalled reports that a scatter batch was aborted by the stall
// supervisor: a worker went silent past the grace period, or the whole
// batch overran its deadline. Match with errors.Is. After a stall the
// engine is poisoned — the aborted workers cannot be killed, only asked
// to stop, so the superstep's partial effects are unrecoverable and
// every later Step returns the same error. The caller must discard the
// engine (and the program state it mutated) and rebuild from a
// known-good snapshot.
var ErrStalled = errors.New("gas: worker stalled")

// StallPolicy configures supervision of the worker pool, one scatter
// batch at a time. With a nil policy (the default) the engine runs
// unsupervised and a hung worker hangs Step forever.
type StallPolicy struct {
	// Deadline bounds one scatter batch (a superstep runs a handful; see
	// maxScatterBatches). 0 disables the batch deadline.
	Deadline time.Duration
	// Grace bounds one worker's heartbeat silence: a worker that
	// processes no item for longer than Grace is declared stalled.
	// 0 disables per-worker silence detection.
	Grace time.Duration
}

func (sp *StallPolicy) enabled() bool {
	return sp != nil && (sp.Deadline > 0 || sp.Grace > 0)
}

// Beat is one worker's progress heartbeat. The worker ticks it once per
// item via Next, which doubles as the cooperative abort check: after
// the supervisor declares a stall, Next returns false and the worker
// must return immediately. A nil Beat (unsupervised run) always
// continues.
type Beat struct {
	n     atomic.Uint64
	ended atomic.Bool
	abort *atomic.Bool // shared across the batch's workers
}

// Next records one unit of progress and reports whether the worker
// should keep going.
func (b *Beat) Next() bool {
	if b == nil {
		return true
	}
	b.n.Add(1)
	return !b.abort.Load()
}

// runSupervised is the supervised counterpart of scatterPool.runBatch:
// [0, n) is split into one contiguous block per worker, every block
// runs on its own goroutine with a heartbeat, and a polling loop on the
// calling goroutine watches for per-worker silence (Grace) and the
// batch deadline (Deadline). On a stall it flips the shared abort flag so
// healthy workers drain cooperatively, waits briefly, and returns an
// error wrapping ErrStalled — without joining the stuck worker, whose
// goroutine is leaked along with the memory it may still write. The
// caller must therefore never reuse the program state after a stall;
// the engine enforces this by poisoning itself. A panic in a block is
// contained and returned as that worker's error, not a stall.
func runSupervised(m *Metrics, sp *StallPolicy, workers, n int, fn func(worker, lo, hi int, beat *Beat)) error {
	abort := &atomic.Bool{}
	block := (n + workers - 1) / workers
	if block < 1 {
		block = 1
	}
	type slot struct {
		beat *Beat
		err  error
	}
	var slots []*slot
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; blockLo(w, block) < n; w++ {
		s := &slot{beat: &Beat{abort: abort}}
		slots = append(slots, s)
		wg.Add(1)
		go func(w int, s *slot) {
			defer wg.Done()
			defer s.beat.ended.Store(true)
			began := time.Now()
			if err := safely(func() { fn(w, blockLo(w, block), blockHi(w, block, n), s.beat) }); err != nil {
				s.err = fmt.Errorf("gas: worker %d: %w", w, err)
			}
			if m != nil {
				m.WorkerBusy.Observe(time.Since(began).Seconds())
			}
		}(w, s)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	poll := pollInterval(sp)
	t := time.NewTicker(poll)
	defer t.Stop()
	counts := make([]uint64, len(slots))
	changed := make([]time.Time, len(slots))
	for i := range changed {
		changed[i] = start
	}
	for {
		select {
		case <-done:
			// Joined: reading slot errors is ordered by wg.Wait.
			for _, s := range slots {
				if s.err != nil {
					return s.err
				}
			}
			return nil
		case <-t.C:
			now := time.Now()
			stalled, running := -1, false
			for i, s := range slots {
				if s.beat.ended.Load() {
					continue
				}
				running = true
				if c := s.beat.n.Load(); c != counts[i] {
					counts[i], changed[i] = c, now
					continue
				}
				if sp.Grace > 0 && now.Sub(changed[i]) > sp.Grace {
					stalled = i
					break
				}
			}
			overran := running && sp.Deadline > 0 && now.Sub(start) > sp.Deadline
			if stalled < 0 && !overran {
				continue
			}
			abort.Store(true)
			if m != nil {
				m.WorkerStalls.Inc()
			}
			// Give healthy workers a moment to drain; the stuck one is
			// leaked either way, so the batch has already failed.
			select {
			case <-done:
			case <-time.After(poll * 4):
			}
			if stalled >= 0 {
				return fmt.Errorf("gas: scatter phase: worker %d made no progress for %v (grace %v): %w",
					stalled, now.Sub(changed[stalled]).Round(time.Millisecond), sp.Grace, ErrStalled)
			}
			return fmt.Errorf("gas: scatter phase exceeded deadline %v: %w", sp.Deadline, ErrStalled)
		}
	}
}

func blockLo(w, block int) int { return w * block }

func blockHi(w, block, n int) int {
	h := (w + 1) * block
	if h > n {
		h = n
	}
	return h
}

// pollInterval picks the monitor's sampling period: fast enough to
// detect a stall well inside the configured bounds, slow enough to stay
// invisible next to the work itself.
func pollInterval(sp *StallPolicy) time.Duration {
	bound := sp.Grace
	if bound <= 0 || (sp.Deadline > 0 && sp.Deadline < bound) {
		bound = sp.Deadline
	}
	p := bound / 8
	if p < time.Millisecond {
		p = time.Millisecond
	}
	if p > 100*time.Millisecond {
		p = 100 * time.Millisecond
	}
	return p
}
