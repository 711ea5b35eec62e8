package main

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/cold-diffusion/cold/internal/rng"
)

// TestScheduleDeterministic: the same seed yields a byte-identical
// operation schedule, and so the same hash; another seed does not.
func TestScheduleDeterministic(t *testing.T) {
	build := func(seed uint64) (string, string) {
		sz := miniSizes(seed)
		s, err := newScoring(sz, seed)
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(seed + 1)
		hot := s.scoreTraffic(r, true, sz.scoreLanes(true), 300*time.Millisecond, 4)
		cold := s.scoreTraffic(r, false, sz.scoreLanes(false), 300*time.Millisecond, 4)
		wr := s.ingestWrites(r, sz.IngestWrite, 0, 300*time.Millisecond, 8)
		return hot.hash + cold.hash, scheduleHash(wr.open, wr.closed)
	}
	a1, a2 := build(7)
	b1, b2 := build(7)
	c1, c2 := build(8)
	if a1 != b1 || a2 != b2 {
		t.Errorf("seed 7 twice: hashes %s %s and %s %s differ", a1, a2, b1, b2)
	}
	if a1 == c1 || a2 == c2 {
		t.Errorf("seeds 7 and 8 share a schedule hash: %s %s", a1, a2)
	}
}

// TestScheduleShape: each lane's j-th operation is due inside its own j-th
// interval, and the merged schedule is sorted.
func TestScheduleShape(t *testing.T) {
	ops := schedule(rng.New(3), time.Second, []laneSpec{{0, 100}, {1, 40}}, func(lane int, o *op) { o.ref = lane })
	if len(ops) != 140 {
		t.Fatalf("%d ops, want 140", len(ops))
	}
	seen := map[int]int{}
	for i, o := range ops {
		if i > 0 && o.due < ops[i-1].due {
			t.Fatalf("op %d due %v before op %d due %v", i, o.due, i-1, ops[i-1].due)
		}
		n := map[int]int{0: 100, 1: 40}[o.lane]
		j := seen[o.lane]
		seen[o.lane]++
		lo, hi := time.Duration(j)*time.Second/time.Duration(n), time.Duration(j+1)*time.Second/time.Duration(n)
		if o.due < lo || o.due > hi {
			t.Errorf("lane %d op %d due %v outside its interval [%v, %v]", o.lane, j, o.due, lo, hi)
		}
	}
}

// TestStallIsNotOmitted drives a stub that stalls 200 ms once, on one
// connection. Every scheduled request is still sent; a request that was
// due during the stall reports the wait, because its latency runs from
// its due time and not from when the connection came free; and the
// generator's lateness rises while its own lateness does not.
func TestStallIsNotOmitted(t *testing.T) {
	const stall = 200 * time.Millisecond
	var mu sync.Mutex
	var phaseStart, stallStart, stallEnd time.Time
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		first := stallStart.IsZero() && !phaseStart.IsZero() && time.Since(phaseStart) > 100*time.Millisecond
		if first {
			stallStart = time.Now()
		}
		mu.Unlock()
		if first {
			time.Sleep(stall)
			mu.Lock()
			stallEnd = time.Now()
			mu.Unlock()
		}
		w.Write([]byte(`{"status":"ok"}`))
	}))
	defer srv.Close()

	ops := schedule(rng.New(1), time.Second, []laneSpec{{0, 200}}, func(_ int, o *op) {
		o.method, o.path, o.items = http.MethodGet, "/", 1
	})
	conns := newConns(1)
	defer closeConns(conns)
	// One request first, so the phase does not pay the connection set-up.
	conns[0].do(http.MethodGet, srv.URL+"/", nil)
	mu.Lock()
	phaseStart = time.Now()
	mu.Unlock()
	ph := runOpen(conns, srv.URL, ops, replyOK)

	if sent, ok := ph.counts(); sent != len(ops) || ok != len(ops) {
		t.Fatalf("sent %d, ok %d of %d scheduled", sent, ok, len(ops))
	}
	if stallEnd.IsZero() {
		t.Fatal("the stub never stalled")
	}
	during := 0
	for i := range ph.ops {
		due := ph.start.Add(ph.ops[i].due)
		if !due.After(stallStart) || !due.Before(stallEnd) {
			continue
		}
		during++
		// The one connection is held until the stall ends, so a request
		// due inside it cannot finish before then.
		if floor := float64(stallEnd.Sub(due)) / 1e6; ph.res[i].latMS < floor {
			t.Errorf("op due %v into the stall reports %.1f ms, less than the %.1f ms it waited",
				due.Sub(stallStart), ph.res[i].latMS, floor)
		}
		if ph.res[i].idle {
			t.Errorf("op due %v into the stall was marked as finding the connection free", due.Sub(stallStart))
		}
	}
	if during < 20 {
		t.Fatalf("only %d ops were due during the stall; the schedule should hold about 40", during)
	}
	all, own := lateP99(ph)
	if all < 50 {
		t.Errorf("gen.late_p99_ms = %.1f after a 200 ms stall over a fifth of the schedule, want it to rise past 50", all)
	}
	if own > all/2 {
		t.Errorf("the generator's own lateness p99 %.1f ms rose with the server's stall (%.1f ms over all sends)", own, all)
	}
}
