// Package halo is a Go reproduction of "HALO: Post-Link Heap-Layout
// Optimisation" (Savage & Jones, CGO 2020): a post-link, profile-guided
// optimisation pipeline that groups related heap allocations and
// specialises memory-management routines to co-locate them, reducing cache
// misses.
//
// Because the paper's substrate (x86-64 binaries, Intel Pin, BOLT, perf,
// SPEC inputs) is not reachable from Go, the repository reimplements the
// entire stack over a simulated one: a miniature ISA and VM with encodable
// binaries (internal/isa, internal/vm), simulated general-purpose
// allocators (internal/alloc), a cache-hierarchy model of the paper's Xeon
// W-2195 (internal/cache), and behavioural models of the eleven evaluation
// benchmarks (internal/workloads). See DESIGN.md for the inventory and
// EXPERIMENTS.md for paper-versus-measured results.
//
// This package is the public facade: it re-exports the pipeline
// (profiling, grouping, identification, rewriting) and the measurement
// harness. The typical flow mirrors the paper's Figure 4:
//
//	w, _ := workloads.Get("povray")            // or build your own program
//	prog := w.Build(w.TestScale)
//	opt, err := halo.Optimize(prog, halo.Config{})
//	// opt.Rewrite.Prog is the instrumented binary;
//	// opt.BitSelectors drive the specialised allocator.
//
// The cmd/halo CLI exposes the same stages over encoded binary files, and
// cmd/halobench regenerates every table and figure of the paper's
// evaluation.
package halo

import (
	"halo/internal/cache"
	"halo/internal/core"
	"halo/internal/hds"
	"halo/internal/isa"
	"halo/internal/measure"
	"halo/internal/profile"
	"halo/internal/profstore"
)

// Config parameterises the pipeline; the zero value uses the paper's
// settings (affinity distance 128, 90% coverage, 5% merge tolerance, 4 KiB
// maximum grouped size).
type Config = core.Config

// Optimized carries every artefact of a pipeline run: the profile, the
// groups, the selectors, the rewritten binary and the lowered runtime
// policy.
type Optimized = core.Optimized

// Profile is the result of a profiling run: the affinity graph, the
// reduced allocation contexts, and (optionally) the data reference trace.
type Profile = profile.Profile

// Optimize runs the full pipeline of Figure 4 on a linked program:
// profile, group, identify, rewrite.
func Optimize(p *isa.Program, cfg Config) (*Optimized, error) {
	return core.Optimize(p, cfg)
}

// ProfileProgram runs only the profiling stage.
func ProfileProgram(p *isa.Program, cfg Config) (*Profile, error) {
	return core.Profile(p, cfg)
}

// ProfileProgramN runs `runs` independent training runs (seeds
// cfg.ProfileSeed, +1, …) concurrently on the shared worker pool and
// merges their profiles deterministically. The result is identical at any
// pool width.
func ProfileProgramN(p *isa.Program, cfg Config, runs int) (*Profile, error) {
	return core.ProfileN(p, cfg, runs)
}

// OptimizeFromProfile runs grouping, identification and rewriting over an
// existing profile.
func OptimizeFromProfile(p *isa.Program, prof *Profile, cfg Config) (*Optimized, error) {
	return core.OptimizeFromProfile(p, prof, cfg)
}

// AnalyzeHDS runs the hot-data-streams comparison technique (Chilimbi &
// Shaham) over a profile recorded with tracing enabled.
func AnalyzeHDS(prof *Profile, cfg Config) (*hds.Result, error) {
	return core.AnalyzeHDS(prof, cfg)
}

// Profile persistence and merging (internal/profstore re-exports). These
// are the building blocks of the service deployment: training runs save
// profiles, a central optimizer merges them and feeds the result to
// OptimizeFromProfile (or lets cmd/halod do all of it over HTTP).

// EncodeProfile serialises a profile to its versioned binary image.
func EncodeProfile(p *Profile) ([]byte, error) { return profstore.Encode(p) }

// DecodeProfile parses a profile image. The result carries the program's
// name but not the program itself; pair it with the matching binary before
// rendering reports.
func DecodeProfile(image []byte) (*Profile, error) { return profstore.Decode(image) }

// SaveProfile writes a profile image to a file.
func SaveProfile(path string, p *Profile) error { return profstore.Save(path, p) }

// LoadProfile reads a profile image from a file.
func LoadProfile(path string) (*Profile, error) { return profstore.Load(path) }

// MergeProfiles deterministically combines profiles of one program from
// independent training runs (different seeds or scales) into a single
// profile for OptimizeFromProfile. The merge is order-independent.
func MergeProfiles(profs ...*Profile) (*Profile, error) { return profstore.Merge(profs...) }

// Measurement re-exports.

// Policy selects an allocator configuration for measurement: the baseline
// allocators, HALO's specialised allocator, the hot-data-streams
// replication, or the random-pool control.
type Policy = measure.Policy

// RunResult is a single run's metrics: instruction counts, cache hierarchy
// statistics, the cycle model's time, and allocator statistics.
type RunResult = measure.RunResult

// Summary aggregates trials per the paper's methodology (§5.1): medians
// with 25th/75th percentiles.
type Summary = measure.Summary

// Run executes a program once under a policy on the given machine model.
func Run(p *isa.Program, pol Policy, seed uint64, machine cache.Config) (RunResult, error) {
	return measure.Run(p, pol, seed, machine)
}

// MeasureTrials runs several trials (discarding a warm-up) on the shared
// worker pool and summarises them. Trial results are gathered by index, so
// summaries are bit-identical at any pool width.
func MeasureTrials(p *isa.Program, pol Policy, trials int, baseSeed uint64, machine cache.Config) (Summary, error) {
	return measure.MeasureTrials(p, pol, trials, baseSeed, machine)
}

// XeonW2195 returns the evaluation machine's memory-hierarchy model.
func XeonW2195() cache.Config { return cache.XeonW2195() }
