// Package core implements COLD (COmmunity Level Diffusion), the latent
// generative model of Hu et al., SIGMOD 2015, jointly over text, time and
// network. It provides the collapsed Gibbs sampler of Appendix A
// (Eqs. 1–3), parameter estimation, the two-stage community-level
// diffusion strength ζ (Eq. 4), the diffusion prediction method of §5.2
// (Eqs. 5–7), link and time-stamp prediction, and the diffusion-pattern
// analyses of §5.3.
package core

import (
	"fmt"
	"math"
)

// Config holds the model dimensions, Dirichlet/Beta hyper-parameters and
// sampler schedule. Zero-valued hyper-parameters are replaced by the
// paper's defaults (§6.5): ρ = 50/C, α = 50/K, β = ε = 0.01, λ₁ = 0.1 and
// λ₀ = κ·ln(n_neg/C²) with κ = 1.
type Config struct {
	C int // number of communities
	K int // number of topics

	Rho     float64 // Dirichlet prior on user→community π
	Alpha   float64 // Dirichlet prior on community→topic θ
	Beta    float64 // Dirichlet prior on topic→word φ
	Epsilon float64 // Dirichlet prior on (topic,community)→time ψ
	Kappa   float64 // weight of the implicit negative-link prior λ₀
	Lambda1 float64 // Beta prior pseudo-count for positive links

	Iterations int // total Gibbs sweeps
	BurnIn     int // sweeps discarded before estimate averaging
	SampleLag  int // thinning between averaged samples after burn-in

	UseLinks bool // false gives the COLD-NoLink ablation (§6.1)

	// NegCorrection replaces the scalar λ₀ prior with the expected
	// per-pair negative-link count in the network component. The paper's
	// λ₀ = κ·ln(n_neg/C²) approximates that quantity at Weibo scale; at
	// laptop scale the log is dwarfed by positive counts and the learned
	// η flattens, so the corrected form is the default here (see
	// DESIGN.md). Disable to reproduce the paper's exact Eq. (2) factor.
	NegCorrection bool

	Workers int // >1 trains with the parallel GAS sampler

	Seed uint64 // RNG seed; same seed ⇒ identical training run
}

// DefaultConfig returns a config with the paper's hyper-parameter policy
// for the given community and topic counts.
func DefaultConfig(c, k int) Config {
	return Config{
		C:             c,
		K:             k,
		Iterations:    60,
		BurnIn:        30,
		SampleLag:     5,
		UseLinks:      true,
		NegCorrection: true,
		Workers:       1,
		Seed:          1,
	}
}

// withDefaults fills unset hyper-parameters following §6.5.
func (c Config) withDefaults() Config {
	// The paper's heuristic is ρ = 50/C and α = 50/K with C = K = 100.
	// At laptop-scale dimensions (C, K ≈ 10) that heuristic produces
	// pseudo-counts comparable to each user's entire record and washes
	// the posteriors out, so the defaults are capped at 1 (see DESIGN.md).
	if c.Rho == 0 {
		c.Rho = minF(50/float64(c.C), 1)
	}
	if c.Alpha == 0 {
		c.Alpha = minF(50/float64(c.K), 1)
	}
	if c.Beta == 0 {
		c.Beta = 0.01
	}
	if c.Epsilon == 0 {
		c.Epsilon = 0.01
	}
	if c.Kappa == 0 {
		c.Kappa = 1
	}
	if c.Lambda1 == 0 {
		c.Lambda1 = 0.1
	}
	if c.Iterations == 0 {
		c.Iterations = 60
	}
	if c.SampleLag <= 0 {
		c.SampleLag = 5
	}
	if c.BurnIn >= c.Iterations {
		c.BurnIn = c.Iterations / 2
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	return c
}

// validate rejects impossible dimensions.
func (c Config) validate() error {
	if c.C <= 0 || c.K <= 0 {
		return fmt.Errorf("core: need C > 0 and K > 0, got C=%d K=%d", c.C, c.K)
	}
	if c.Iterations < 1 {
		return fmt.Errorf("core: need at least one iteration")
	}
	return nil
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// lambda0 computes λ₀ = κ·ln(n_neg/C²) where n_neg = U(U−1) − |E| is the
// number of negative links implicitly modelled in the Beta prior (§3.3).
// It is floored at a small positive value so degenerate tiny graphs keep
// a proper prior.
func (c Config) lambda0(users, links int) float64 {
	nNeg := float64(users)*float64(users-1) - float64(links)
	if nNeg < 1 {
		nNeg = 1
	}
	l0 := c.Kappa * math.Log(nNeg/float64(c.C*c.C))
	if l0 < 0.1 {
		l0 = 0.1
	}
	return l0
}
