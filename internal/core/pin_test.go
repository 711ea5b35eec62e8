package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"hash/fnv"
	"strings"
	"testing"

	"github.com/cold-diffusion/cold/internal/synth"
)

// parallelChainDigest is the FNV-64a digest of (c, z, s, sp) after 3
// sweeps of the parallel sampler on synth.Small(21) with seed 7,
// recorded at the commit before the GAS engines were collapsed into one
// (with its default chromatic schedule).
const parallelChainDigest uint64 = 0x14fce12b808ca540

// TestParallelChainPinned pins the sampled chain itself, not just its
// agreement across worker counts: the digest moves if the colouring, the
// shard plan, the per-shard RNG keying or the kernel does, and every
// parallel checkpoint written before such a change would resume onto a
// different chain.
func TestParallelChainPinned(t *testing.T) {
	scfg := synth.Small(21)
	data, _, err := synth.Generate(scfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 4} {
		cfg := DefaultConfig(scfg.C, scfg.K).withDefaults()
		cfg.Workers, cfg.Seed = w, 7
		smp, err := newParallelSampler(data, cfg, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if err := smp.sweep(); err != nil {
				t.Fatal(err)
			}
		}
		h := fnv.New64a()
		var buf [8]byte
		c, z, s, sp := smp.assignments()
		for _, xs := range [][]int{c, z, s, sp} {
			for _, x := range xs {
				binary.LittleEndian.PutUint64(buf[:], uint64(x))
				h.Write(buf[:])
			}
		}
		smp.close()
		if got := h.Sum64(); got != parallelChainDigest {
			t.Errorf("workers=%d: chain digest %#x, want %#x", w, got, parallelChainDigest)
		}
	}
}

// TestCheckpointConfigIgnoresRemovedField: checkpoints and gob models
// written before the engines were collapsed carry a Config with an extra
// `Chromatic bool`. Gob matches struct fields by name and drops the
// ones the receiver lacks, so those files still load — with every other
// field intact.
func TestCheckpointConfigIgnoresRemovedField(t *testing.T) {
	// The Config of the commit that still had the field, inside the
	// corner of the Checkpoint that matters here.
	type parentConfig struct {
		C, K                                      int
		Rho, Alpha, Beta, Epsilon, Kappa, Lambda1 float64
		Iterations, BurnIn, SampleLag             int
		UseLinks, NegCorrection                   bool
		Workers                                   int
		Chromatic                                 bool
		Seed                                      uint64
	}
	type parentCheckpoint struct {
		Version int
		Cfg     parentConfig
		Sweep   int
	}
	want := DefaultConfig(4, 6).withDefaults()
	want.Workers, want.Seed = 4, 99
	old := parentCheckpoint{Version: checkpointVersion, Sweep: 20, Cfg: parentConfig{
		C: want.C, K: want.K,
		Rho: want.Rho, Alpha: want.Alpha, Beta: want.Beta, Epsilon: want.Epsilon, Kappa: want.Kappa, Lambda1: want.Lambda1,
		Iterations: want.Iterations, BurnIn: want.BurnIn, SampleLag: want.SampleLag,
		UseLinks: want.UseLinks, NegCorrection: want.NegCorrection,
		Workers: want.Workers, Chromatic: true, Seed: want.Seed,
	}}

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&old); err != nil {
		t.Fatal(err)
	}
	var ck Checkpoint
	if err := gob.NewDecoder(&buf).Decode(&ck); err != nil {
		t.Fatalf("checkpoint with the removed Config.Chromatic does not decode: %v", err)
	}
	if ck.Cfg != want || ck.Sweep != 20 || ck.Version != checkpointVersion {
		t.Fatalf("decoded %+v (sweep %d), want %+v", ck.Cfg, ck.Sweep, want)
	}
}

// A checkpoint whose RNG stream count does not match the shard plan —
// written under a different plan, or by the serial sampler — must fail
// the restore loudly instead of resuming onto some other chain.
func TestParallelRestoreRejectsWrongStreamCount(t *testing.T) {
	data, _, err := synth.Generate(synth.Config{U: 30, C: 3, K: 3, T: 6, V: 60,
		PostsPerUser: 5, WordsPerPost: 5, LinksPerUser: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(3, 3).withDefaults()
	cfg.Workers = 2
	smp, err := newParallelSampler(data, cfg, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer smp.close()
	ck := &Checkpoint{RNG: smp.rngStates()}
	ck.C, ck.Z, ck.S, ck.SP = smp.assignments()
	if resumed, err := newParallelSampler(data, cfg, ck, nil, nil); err != nil {
		t.Fatalf("matching checkpoint rejected: %v", err)
	} else {
		resumed.close()
	}
	ck.RNG = ck.RNG[:len(ck.RNG)-1]
	if _, err := newParallelSampler(data, cfg, ck, nil, nil); err == nil || !strings.Contains(err.Error(), "RNG streams") {
		t.Fatalf("short stream list: got %v, want the RNG stream count error", err)
	}
}
