package gas

import (
	"strings"
	"testing"
	"time"

	"github.com/cold-diffusion/cold/internal/faultinject"
)

// panicIn makes a degreeProgram panic in the named phase ("scatter" or
// "merge") until healed by clearing the hooks.
func panicIn(p *degreeProgram, phase string) {
	switch phase {
	case "scatter":
		p.onEdge = func(int32) { panic("scatter boom") }
	case "merge":
		p.onMerge = func() { panic("merge boom") }
	}
}

// A panic in either phase — on the calling goroutine (1 worker, merge)
// or inside a pool worker — surfaces as a Step error instead of killing
// the process.
func TestStepContainsPanics(t *testing.T) {
	for _, phase := range []string{"scatter", "merge"} {
		for _, workers := range []int{1, 4} {
			p := newDegreeProgram()
			panicIn(p, phase)
			e := NewEngine(buildTestGraph(), p, workers)
			err := e.Step()
			if err == nil {
				t.Fatalf("%s/%d workers: panic not converted to error", phase, workers)
			}
			if !strings.Contains(err.Error(), phase+" boom") {
				t.Fatalf("%s/%d workers: error %q lost the panic message", phase, workers, err)
			}
			e.Close()
		}
	}
}

func TestStepHealthyAfterContainedPanic(t *testing.T) {
	// A program that panics once, then behaves: the engine itself must
	// stay usable for the caller's rollback-and-retry.
	p := newDegreeProgram()
	panicIn(p, "scatter")
	e := NewEngine(buildTestGraph(), p, 2)
	defer e.Close()
	if err := e.Step(); err == nil {
		t.Fatal("first step should fail")
	}
	p.onEdge = nil
	if err := e.Step(); err != nil {
		t.Fatalf("engine unusable after contained panic: %v", err)
	}
	requireDegrees(t, p, 1)
}

// The gas.scatter.worker fault point fires once per worker per batch on
// both execution paths, and an injected crash is contained like any
// other worker panic.
func TestScatterWorkerFaultPoint(t *testing.T) {
	for _, supervised := range []bool{false, true} {
		faultinject.Set(faultinject.GasScatterWorker, func(args ...any) {
			if args[0].(int) == 0 {
				panic("injected worker crash")
			}
		})
		e := NewEngine(buildTestGraph(), newDegreeProgram(), 2)
		if supervised {
			e.SetStallPolicy(&StallPolicy{Grace: 10 * time.Second})
		}
		err := e.Step()
		faultinject.Reset()
		if err == nil || !strings.Contains(err.Error(), "injected worker crash") {
			t.Fatalf("supervised=%v: injected crash not reported: %v", supervised, err)
		}
		if err := e.Step(); err != nil {
			t.Fatalf("supervised=%v: engine unusable after injected crash: %v", supervised, err)
		}
		e.Close()
	}
}
