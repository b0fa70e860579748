// Package core wires the HALO pipeline of Figure 4 end to end: profiling
// (under the default allocator, on the training input), affinity-graph
// grouping, selector identification, post-link rewriting, and the lowering
// of selectors onto the rewritten binary's group-state bits. It also runs
// the hot-data-streams comparison pipeline over the same profile.
package core

import (
	"fmt"

	"halo/internal/affinity"
	"halo/internal/alloc"
	"halo/internal/group"
	"halo/internal/halloc"
	"halo/internal/hds"
	"halo/internal/identify"
	"halo/internal/isa"
	"halo/internal/measure"
	"halo/internal/mem"
	"halo/internal/obs"
	"halo/internal/pool"
	"halo/internal/profile"
	"halo/internal/profstore"
	"halo/internal/rewrite"
	"halo/internal/vm"
)

// Config parameterises the pipeline. Zero values take the paper's
// settings throughout.
type Config struct {
	Profile profile.Config
	Group   group.Params
	HDS     hds.Config

	// ProfileSeed drives the training run (the "test workload");
	// 0 = DefaultProfileSeed.
	ProfileSeed uint64
	// ProfileMaxSteps bounds the training run.
	ProfileMaxSteps uint64
	// ProfileBatchSize overrides the VM's event-batch size for the
	// training run (0 = vm.DefaultBatchSize). Profiles are bit-identical
	// at any setting; the knob exists for determinism tests and tuning.
	ProfileBatchSize int

	// Deprecated: layout synthesis (grouping, selector identification,
	// co-allocation set construction) runs serially and ignores this
	// value. The field is kept only so existing callers still compile.
	SynthesisWorkers int

	// Trace, when non-nil, receives one span per pipeline stage (profile,
	// group, identify, rewrite, lower, hds/*). Timing only — it never
	// affects results. A nil trace records nothing at zero cost.
	Trace *obs.Trace
}

// DefaultProfileSeed drives the training run when Config.ProfileSeed is 0.
const DefaultProfileSeed = 7

// profileSeed is the training run's seed, or ProfileN's first one.
func (c Config) profileSeed() uint64 {
	if c.ProfileSeed == 0 {
		return DefaultProfileSeed
	}
	return c.ProfileSeed
}

// Optimized carries every artefact of the HALO pipeline for one binary.
type Optimized struct {
	Input   *isa.Program
	Profile *profile.Profile
	// Graph is the affinity graph grouping ran on: the profile's raw
	// graph filtered at Config.Group.Coverage (group.Filter).
	Graph     *affinity.Graph
	Groups    []group.Group
	Selectors *identify.Result
	Rewrite   *rewrite.Result

	// BitSelectors are the selectors lowered onto group-state bits, ready
	// for the runtime allocator.
	BitSelectors []halloc.BitSelector
	// DroppedConjs counts conjunctions that could not be lowered.
	DroppedConjs int
}

// Profile runs the program on the training input under the default
// allocator with the Pin-replacement instrumentation attached.
func Profile(p *isa.Program, cfg Config) (*profile.Profile, error) {
	defer cfg.Trace.Span("profile")()
	prof := profile.New(p, cfg.Profile)
	memory := mem.NewMemory()
	osm := mem.NewOS(memory)
	// The profiler drains batches on a borrowed pool helper when one is
	// free; it is read only after Run returns.
	v := vm.New(p, memory, alloc.NewSizeSeg(osm), prof, vm.Config{
		Seed:        cfg.profileSeed(),
		MaxSteps:    cfg.ProfileMaxSteps,
		BatchSize:   cfg.ProfileBatchSize,
		OverlapSink: true,
	})
	if _, err := v.Run(); err != nil {
		return nil, fmt.Errorf("core: profiling run: %w", err)
	}
	return prof.Finish(), nil
}

// ProfileN runs `runs` independent training runs — seeds cfg.ProfileSeed,
// +1, +2, … — on the shared worker pool and merges their profiles
// deterministically. Because the VM's event engine is reentrant (every run
// owns its memory, allocator and profiler) and profstore's merge is
// order-independent, the result is bit-identical at any pool width.
// runs <= 1 degenerates to a single Profile call.
func ProfileN(p *isa.Program, cfg Config, runs int) (*profile.Profile, error) {
	if runs <= 1 {
		return Profile(p, cfg)
	}
	// One span covers the whole fan-out and merge; the concurrent inner
	// runs are untraced so the span list stays one-entry-per-stage.
	defer cfg.Trace.Span("profile")()
	baseSeed := cfg.profileSeed()
	profs := make([]*profile.Profile, runs)
	err := pool.Map(runs, 0, func(i int) error {
		c := cfg
		c.Trace = nil
		c.ProfileSeed = baseSeed + uint64(i)
		pr, err := Profile(p, c)
		if err != nil {
			return err
		}
		profs[i] = pr
		return nil
	})
	if err != nil {
		return nil, err
	}
	merged, err := profstore.Merge(profs...)
	if err != nil {
		return nil, fmt.Errorf("core: merging training profiles: %w", err)
	}
	return merged, nil
}

// Optimize runs the full HALO pipeline on a binary, profiling it with the
// training seed and producing the rewritten binary plus runtime policy.
func Optimize(p *isa.Program, cfg Config) (*Optimized, error) {
	prof, err := Profile(p, cfg)
	if err != nil {
		return nil, err
	}
	return OptimizeFromProfile(p, prof, cfg)
}

// OptimizeFromProfile runs grouping, identification and rewriting over an
// existing profile (so one profiling run can feed several configurations),
// whether fresh, merged or decoded. It filters the profile's raw graph at
// cfg.Group.Coverage first. It only reads prof, so concurrent calls may
// share one profile.
func OptimizeFromProfile(p *isa.Program, prof *profile.Profile, cfg Config) (*Optimized, error) {
	endGroup := cfg.Trace.Span("group")
	graph := group.Filter(prof.RawGraph, cfg.Group)
	groups := group.Form(graph, cfg.Group)
	endGroup()

	endIdentify := cfg.Trace.Span("identify")
	sel := identify.Build(groups, prof.Contexts)
	endIdentify()

	rw, bitSels, dropped, err := rewriteAndLower(p, sel, cfg.Trace)
	if err != nil {
		return nil, err
	}
	return &Optimized{
		Input:        p,
		Profile:      prof,
		Graph:        graph,
		Groups:       groups,
		Selectors:    sel,
		Rewrite:      rw,
		BitSelectors: bitSels,
		DroppedConjs: dropped,
	}, nil
}

// rewriteAndLower instruments p at the sites sel chose and lowers sel's
// selectors onto the rewritten binary's group-state bits. dropped counts
// the conjunctions that could not be lowered. tr, when non-nil, receives
// the "rewrite" and "lower" spans.
func rewriteAndLower(p *isa.Program, sel *identify.Result, tr *obs.Trace) (rw *rewrite.Result, bitSels []halloc.BitSelector, dropped int, err error) {
	endRewrite := tr.Span("rewrite")
	rw, err = rewrite.Instrument(p, sel.Sites)
	endRewrite()
	if err != nil {
		return nil, nil, 0, fmt.Errorf("core: rewriting: %w", err)
	}
	endLower := tr.Span("lower")
	for _, s := range sel.Selectors {
		lowered, n := rewrite.LowerSelectors(s.Conj, rw.SiteBits)
		dropped += n
		if len(lowered) > 0 {
			bitSels = append(bitSels, halloc.BitSelector{Group: s.Group, Conj: lowered})
		}
	}
	endLower()
	return rw, bitSels, dropped, nil
}

// HALOPolicy rewrites p at the sites o chose and lowers o's selectors
// against the rewritten binary's bit assignment, returning the policy that
// measures p under the group allocator with tuning hc. p may be another
// build of o.Input — the ref-scale input, say — as long as the two share
// call-site addresses, so the profile transfers (the §5.1 methodology).
func (o *Optimized) HALOPolicy(p *isa.Program, hc halloc.Config) (measure.Policy, error) {
	rw, bitSels, _, err := rewriteAndLower(p, o.Selectors, nil)
	if err != nil {
		return measure.Policy{}, err
	}
	return measure.Policy{
		Kind:      measure.HALO,
		Rewritten: rw.Prog,
		Selectors: bitSels,
		NumBits:   rw.NumBits,
		Halloc:    hc,
	}, nil
}

// AnalyzeHDS runs the hot-data-streams comparison pipeline over a profile
// recorded with tracing enabled.
func AnalyzeHDS(prof *profile.Profile, cfg Config) (*hds.Result, error) {
	if prof.Trace.Len() == 0 {
		return nil, fmt.Errorf("core: profile has no reference trace; enable Profile.RecordTrace")
	}
	return hds.Analyze(prof, cfg.HDS, cfg.Trace), nil
}

// GroupReport renders the formed groups with context chains, reproducing
// the content of the paper's Figure 9 for any workload.
func (o *Optimized) GroupReport() string {
	out := fmt.Sprintf("%s: %d contexts, %d graph nodes (filtered), %d groups\n",
		o.Input.Name, len(o.Profile.Contexts), o.Graph.NumNodes(), len(o.Groups))
	for _, g := range o.Groups {
		out += fmt.Sprintf("  group %d (weight %d, accesses %d):\n", g.ID, g.Weight, g.Accesses)
		for _, m := range g.Members {
			out += fmt.Sprintf("    %s\n", o.Profile.Contexts[m].Describe(o.Input))
		}
	}
	out += fmt.Sprintf("  (%d hot contexts ungrouped)\n", o.UngroupedHot())
	return out
}

// UngroupedHot counts the contexts with accesses in the filtered graph
// that no group took: the grey nodes of the paper's Figure 9.
func (o *Optimized) UngroupedHot() int {
	grouped := make([]bool, len(o.Profile.Contexts))
	for _, g := range o.Groups {
		for _, m := range g.Members {
			grouped[m] = true
		}
	}
	n := 0
	for _, c := range o.Profile.Contexts {
		if !grouped[c.ID] && o.Graph.Accesses(c.ID) > 0 {
			n++
		}
	}
	return n
}
