package main

import (
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestSlowdown(t *testing.T) {
	h := &hostRef{nominal: 2, ms: []float64{3, 9, 2.5, 3.5, 3}}
	if got := h.slowdown(); got != 1.5 {
		t.Errorf("slowdown = %g, want the median reading 3 over the nominal 2", got)
	}
	if got := (&hostRef{nominal: 2}).slowdown(); got != 1 {
		t.Errorf("slowdown without readings = %g, want 1", got)
	}
	h = walkRef()
	h.walk(3)
	if len(h.ms) != 3 || h.ms[0] <= 0 {
		t.Errorf("three walks read %v", h.ms)
	}
}

// TestScaledAndMeasured: a compute-bound number is divided by the host's
// slowdown and says what it measured; a timer-bound one is left alone.
func TestScaledAndMeasured(t *testing.T) {
	r := &runResult{Workload: wScoreHot, Metrics: map[string]value{}}
	slowHost := &hostRef{nominal: 1, ms: []float64{1.25}}
	r.setLatency("primary", [][]float64{{5, 5, 5}}, r.slow(0, slowHost))
	r.setLatency("secondary", [][]float64{{5, 5, 5}}, r.slow(1, slowHost))
	r.setRate(1000, 3, r.slow(3, slowHost), "")
	if v := r.Metrics["primary_p50_ms"]; math.Abs(v.Value-4) > 1e-12 || !strings.Contains(v.Note, "measured 5.0000 ms, divided by 1.250") {
		t.Errorf("scaled latency = %g (%s), want 5 ms over 1.25", v.Value, v.Note)
	}
	if v := r.Metrics["secondary_p50_ms"]; v.Value != 5 || !strings.HasPrefix(v.Note, "as measured") {
		t.Errorf("single score, which waits out a timer, = %g (%s), want 5 as measured", v.Value, v.Note)
	}
	if v := r.Metrics["primary_per_s"]; math.Abs(v.Value-1250) > 1e-9 {
		t.Errorf("scaled rate = %g, want 1000/s times 1.25", v.Value)
	}
	// A publish is half walk: the square root of the slowdown.
	r = &runResult{Workload: wTrainXL, Metrics: map[string]value{}}
	r.setLatency("tertiary", [][]float64{{5, 5, 5}}, r.slow(2, &hostRef{nominal: 1, ms: []float64{4}}))
	if v := r.Metrics["tertiary_p50_ms"]; math.Abs(v.Value-2.5) > 1e-12 {
		t.Errorf("half-scaled latency = %g, want 5 ms over sqrt(4)", v.Value)
	}
}

// TestReferenceGoesToTheEcho: aimed reference operations are sent to the
// echo server, everything else to the phase's base, and the default judge
// accepts the echo's reply.
func TestReferenceGoesToTheEcho(t *testing.T) {
	echo := httptest.NewServer(echoHandler())
	defer echo.Close()
	hits := 0
	product := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { hits++ }))
	defer product.Close()

	ops := make([]op, 4)
	for i := range ops {
		ops[i] = op{method: http.MethodGet, path: "/x"}
	}
	refOp(&ops[1])
	refOp(&ops[3])
	aimRef(echo.URL, ops)
	conns := newConns(1)
	defer closeConns(conns)
	ph := runOpen(conns, product.URL, ops, replyOK)
	if sent, ok := ph.counts(); sent != 4 || ok != 4 {
		t.Fatalf("sent %d, ok %d of 4", sent, ok)
	}
	if hits != 2 {
		t.Errorf("the product saw %d requests, want the 2 that are not reference operations", hits)
	}
	if got := flatten(ph.lane(laneRef, 1, 1)); len(got) != 2 {
		t.Errorf("%d reference latencies, want 2", len(got))
	}
}
