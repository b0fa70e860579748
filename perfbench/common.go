package main

import (
	"fmt"
	"hash/fnv"

	"halo/internal/cache"
	"halo/internal/core"
	"halo/internal/halloc"
	"halo/internal/isa"
	"halo/internal/measure"
	"halo/internal/rewrite"
	"halo/internal/workloads"
)

// programs are the three SPEC CPU2017 models the pipeline and evaluate
// workloads run: the paper's headline wins (povray, xalanc) and its
// largest profile (omnetpp).
var programs = []string{"povray", "xalanc", "omnetpp"}

// derive maps the run's seed to an independent nonzero seed per named
// stream and index (splitmix64 over the seed mixed with the stream name).
func derive(seed uint64, stream string, i int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(stream))
	x := seed ^ h.Sum64() + uint64(i)*0x9e3779b97f4a7c15
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

// pipelineConfig is the experiments engine's per-benchmark configuration
// (RecordTrace on for the hot-data-streams comparison, the artifact
// appendix's group limit) with serial synthesis and a seeded training run.
func pipelineConfig(w workloads.Workload, trainSeed uint64) core.Config {
	cfg := core.Config{ProfileSeed: trainSeed, SynthesisWorkers: 1}
	cfg.Profile.RecordTrace = true
	if w.MaxGroups > 0 {
		cfg.Group.MaxGroups = w.MaxGroups
		cfg.HDS.MaxGroups = w.MaxGroups
	}
	return cfg
}

func hallocConfig(w workloads.Workload) halloc.Config {
	return halloc.Config{
		ChunkSize:         w.ChunkSize,
		NoSpare:           w.NoSpare,
		AlwaysReuseChunks: w.AlwaysReuse,
	}
}

// lowerOnto rewrites build with the call sites chosen on the training
// profile and lowers the selectors against build's bit assignment: the
// experiments engine's transfer of a test-input layout to the measured
// build. t, when non-nil, times the two calls under its current op.
func lowerOnto(t *tracer, w workloads.Workload, build *isa.Program, opt *core.Optimized) (measure.Policy, error) {
	id := t.begin("rewrite.instrument", t.rootID())
	rw, err := rewrite.Instrument(build, opt.Selectors.Sites)
	t.end(id)
	if err != nil {
		return measure.Policy{}, fmt.Errorf("%s: rewriting measured build: %w", w.Name, err)
	}
	id = t.begin("rewrite.lower", t.rootID())
	var sels []halloc.BitSelector
	for _, s := range opt.Selectors.Selectors {
		if lowered, _ := rewrite.LowerSelectors(s.Conj, rw.SiteBits); len(lowered) > 0 {
			sels = append(sels, halloc.BitSelector{Group: s.Group, Conj: lowered})
		}
	}
	t.end(id)
	return measure.Policy{
		Kind:      measure.HALO,
		Rewritten: rw.Prog,
		Selectors: sels,
		NumBits:   rw.NumBits,
		Halloc:    hallocConfig(w),
	}, nil
}

// haloPolicy is the policy core.OptimizeFromProfile produced for the
// build it was given.
func haloPolicy(w workloads.Workload, opt *core.Optimized) measure.Policy {
	return measure.Policy{
		Kind:      measure.HALO,
		Rewritten: opt.Rewrite.Prog,
		Selectors: opt.BitSelectors,
		NumBits:   opt.Rewrite.NumBits,
		Halloc:    hallocConfig(w),
	}
}

// trial is one program measured under jemalloc and under HALO.
type trial struct {
	name string
	base *isa.Program
	halo measure.Policy
}

// pair runs one trial: the unmodified build under jemalloc, then the
// rewritten build under HALO, both at the measurement seed.
func (t trial) pair(seed uint64, machine cache.Config) ([2]measure.RunResult, error) {
	var out [2]measure.RunResult
	var err error
	if out[0], err = measure.Run(t.base, measure.Policy{Kind: measure.Jemalloc}, seed, machine); err != nil {
		return out, err
	}
	out[1], err = measure.Run(t.base, t.halo, seed, machine)
	return out, err
}

// quality aggregates jemalloc/HALO pairs over programs into the paper's
// two layout-quality figures: L1D miss reduction (Figure 13) and speedup
// of the cycle model (Figure 14). Both are deterministic.
type quality struct {
	missReductionPct float64
	speedupPct       float64
}

func qualityOf(pairs [][2]measure.RunResult) (quality, error) {
	var baseMiss, haloMiss, baseCyc, haloCyc uint64
	for _, p := range pairs {
		if p[0].Result != p[1].Result {
			return quality{}, fmt.Errorf("HALO changed the program's result: %d vs %d", p[1].Result, p[0].Result)
		}
		baseMiss += p[0].Cache.L1D.Misses
		haloMiss += p[1].Cache.L1D.Misses
		baseCyc += p[0].Cycles
		haloCyc += p[1].Cycles
	}
	if baseMiss == 0 || haloCyc == 0 {
		return quality{}, fmt.Errorf("degenerate measurement: %d baseline misses, %d HALO cycles", baseMiss, haloCyc)
	}
	return quality{
		missReductionPct: 100 * (1 - float64(haloMiss)/float64(baseMiss)),
		speedupPct:       100 * (float64(baseCyc)/float64(haloCyc) - 1),
	}, nil
}
