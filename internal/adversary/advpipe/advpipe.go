// Package advpipe is the adversary's full-pipeline fitness: it scores a
// candidate sequence by compiling it, running the complete HALO pipeline
// (profile on the training seed → grouping → identification → rewrite) and
// measuring baseline vs HALO on a measurement seed. It lives apart from
// package adversary so that internal/workloads — which those pipeline
// stages' own tests import — can depend on the sequence model and compiler
// without a test-time import cycle through internal/core.
package advpipe

import (
	"fmt"

	"halo/internal/adversary"
	"halo/internal/cache"
	"halo/internal/core"
	"halo/internal/halloc"
	"halo/internal/measure"
)

// Eval is the outcome of running one sequence through the full pipeline.
type Eval struct {
	// MissReductionPct is the L1D miss reduction of HALO over the jemalloc
	// baseline; negative means grouping added misses — the regression the
	// adversary hunts.
	MissReductionPct float64
	// SpeedupPct is the cycle-model improvement of HALO over the baseline.
	SpeedupPct float64
	// Grouped counts allocations the group allocator served.
	Grouped uint64
}

// EvalPipeline compiles the sequence at the given scale and runs it through
// the full pipeline once. Profiling uses the training seed (core's default
// 7); measurement uses seed 1000 like the golden harness, so RNG-gated
// sequences genuinely diverge between what the profile saw and what the
// measurement exercises.
func EvalPipeline(s *adversary.Sequence, scale int) (Eval, error) {
	p := adversary.Compile(s, scale)
	opt, err := core.Optimize(p, core.Config{})
	if err != nil {
		return Eval{}, fmt.Errorf("advpipe: pipeline on %s: %w", s.Name, err)
	}
	machine := cache.XeonW2195()
	pol, err := opt.HALOPolicy(p, halloc.Config{})
	if err != nil {
		return Eval{}, fmt.Errorf("advpipe: rewrite of %s: %w", s.Name, err)
	}
	const measureSeed = 1000
	base, err := measure.Run(p, measure.Policy{Kind: measure.Jemalloc}, measureSeed, machine)
	if err != nil {
		return Eval{}, err
	}
	halo, err := measure.Run(p, pol, measureSeed, machine)
	if err != nil {
		return Eval{}, err
	}
	if base.Result != halo.Result {
		return Eval{}, fmt.Errorf("advpipe: %s: result diverged under HALO: %d vs %d",
			s.Name, base.Result, halo.Result)
	}
	return Eval{
		MissReductionPct: measure.Improvement(float64(base.Cache.L1D.Misses), float64(halo.Cache.L1D.Misses)),
		SpeedupPct:       measure.Improvement(base.Seconds, halo.Seconds),
		Grouped:          halo.GroupedAllocs,
	}, nil
}

// RegressionFitness scores how badly grouping hurts the sequence: the
// negated miss reduction, so a candidate HALO regresses scores positive.
// Candidates grouping barely touches score an epsilon below zero — a
// workload the optimiser ignores is not a defeat of the optimiser.
func RegressionFitness(scale int) adversary.Fitness {
	return func(s *adversary.Sequence) float64 {
		ev, err := EvalPipeline(s, scale)
		if err != nil {
			return -1e9
		}
		if ev.Grouped == 0 {
			return -1e6
		}
		return -ev.MissReductionPct
	}
}

// MissRegressor searches with the full-pipeline fitness for a sequence on
// which HALO's grouping increases L1D misses relative to the jemalloc
// baseline. The budget is small because each candidate costs a complete
// profile → synthesis → rewrite → measure round trip; the MinFitness
// threshold stops at the first genuine regression. The winner for
// adversary.MissRegressorSeed is pinned as adversary.MissRegressorPinnedSeed —
// the adv-regress workload rebuilds it from that pin, and the discovery
// test asserts the search still finds it.
func MissRegressor(seed uint64) adversary.SearchResult {
	return adversary.Search(adversary.SearchConfig{
		Seed:       seed,
		Candidates: 12,
		NamePrefix: "adv-regress",
		MinFitness: 0.5, // ≥0.5% more misses under HALO
		Params:     adversary.MissRegressorParams(),
	}, RegressionFitness(adversary.MissRegressorScale))
}
