package gas

import (
	"errors"
	"testing"
	"time"

	"github.com/cold-diffusion/cold/internal/obs"
)

// hangOn makes the program block on the returned channel when it
// reaches the given edge — a deliberately hung worker. Closing the
// channel releases the leaked goroutine.
func hangOn(p *degreeProgram, edge int32) chan struct{} {
	release := make(chan struct{})
	p.onEdge = func(eid int32) {
		if eid == edge {
			<-release
		}
	}
	return release
}

// requireStalled runs one Step and fails unless it returns an error
// wrapping ErrStalled well before the test would hang.
func requireStalled(t *testing.T, e *Engine[string, *degCtx]) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- e.Step() }()
	select {
	case err := <-done:
		if !errors.Is(err, ErrStalled) {
			t.Fatalf("Step returned %v, want ErrStalled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Step hung despite the stall policy")
	}
}

// A hung scatter worker is detected within the stall policy's bounds:
// Step returns an error wrapping ErrStalled instead of hanging forever,
// the stall is counted, and the poisoned engine refuses further
// supersteps without touching the (possibly still-mutating) state. Edge
// 3 sits in the second batch, so the batches before it ran and merged.
func TestHungWorkerDetectedAndEnginePoisoned(t *testing.T) {
	p := newDegreeProgram()
	defer close(hangOn(p, 3)) // unblock the leaked goroutine at test exit
	e := NewEngine(buildTestGraph(), p, 2)
	defer e.Close()
	m := NewMetrics(obs.NewRegistry())
	e.SetMetrics(m)
	e.SetStallPolicy(&StallPolicy{Grace: 30 * time.Millisecond})

	requireStalled(t, e)
	if got := m.WorkerStalls.Value(); got != 1 {
		t.Fatalf("WorkerStalls = %d, want 1", got)
	}
	if p.merges != 1 {
		t.Fatalf("%d merges before the stalled batch, want 1", p.merges)
	}
	// Poisoned: the next Step must fail instantly, not re-run batches.
	start := time.Now()
	if err := e.Step(); !errors.Is(err, ErrStalled) {
		t.Fatalf("poisoned Step returned %v, want ErrStalled", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("poisoned Step took %v, want immediate return", d)
	}
	if p.merges != 1 {
		t.Fatal("poisoned Step ran a merge")
	}
}

// A hang in the very first batch — a lone shard, so the supervisor has
// a single heartbeat to watch — is caught the same way.
func TestHungWorkerInFirstBatch(t *testing.T) {
	p := newDegreeProgram()
	defer close(hangOn(p, 0))
	e := NewEngine(buildTestGraph(), p, 2)
	defer e.Close()
	e.SetStallPolicy(&StallPolicy{Grace: 30 * time.Millisecond})
	requireStalled(t, e)
	if err := e.Step(); !errors.Is(err, ErrStalled) {
		t.Fatalf("poisoned Step returned %v, want ErrStalled", err)
	}
	if p.merges != 0 {
		t.Fatalf("%d merges ran past a stalled first batch", p.merges)
	}
}

// Steady but slow progress trips the batch deadline without any single
// worker ever going silent past the grace.
func TestPhaseDeadlineOverrun(t *testing.T) {
	p := newDegreeProgram()
	p.onEdge = func(int32) { time.Sleep(30 * time.Millisecond) }
	e := NewEngine(buildTestGraph(), p, 1)
	defer e.Close()
	e.SetStallPolicy(&StallPolicy{Deadline: 25 * time.Millisecond})
	if err := e.Step(); !errors.Is(err, ErrStalled) {
		t.Fatalf("Step returned %v, want ErrStalled on deadline overrun", err)
	}
}

// Supervision must be an observer on healthy runs: same results as the
// unsupervised engine, no stalls counted, engine stays usable.
func TestSupervisedHealthyRunUnaffected(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		g := buildTestGraph()
		p := newDegreeProgram()
		e := NewEngine(g, p, workers)
		m := NewMetrics(obs.NewRegistry())
		e.SetMetrics(m)
		e.SetStallPolicy(&StallPolicy{Deadline: 10 * time.Second, Grace: 10 * time.Second})
		for step := 0; step < 3; step++ {
			if err := e.Step(); err != nil {
				t.Fatalf("workers=%d step %d: %v", workers, step, err)
			}
		}
		requireDegrees(t, p, 3)
		if p.scatterTotal != 3*len(g.Edges) {
			t.Fatalf("workers=%d: scatter visited %d, want %d", workers, p.scatterTotal, 3*len(g.Edges))
		}
		if m.WorkerStalls.Value() != 0 {
			t.Fatalf("workers=%d: healthy run counted %d stalls", workers, m.WorkerStalls.Value())
		}
		e.Close()
	}
}

// A panic inside a supervised block still surfaces as a contained
// error (not a stall, not a crash), and does not poison the engine.
func TestSupervisedPanicStillContained(t *testing.T) {
	p := newDegreeProgram()
	panicIn(p, "scatter")
	e := NewEngine(buildTestGraph(), p, 2)
	defer e.Close()
	e.SetStallPolicy(&StallPolicy{Grace: time.Second})
	err := e.Step()
	if err == nil {
		t.Fatal("panicking program returned nil error")
	}
	if errors.Is(err, ErrStalled) {
		t.Fatalf("panic misreported as stall: %v", err)
	}
	p.onEdge = nil
	if err := e.Step(); err != nil {
		t.Fatalf("engine unusable after contained panic: %v", err)
	}
	requireDegrees(t, p, 1)
}
