package core

import (
	"reflect"
	"slices"
	"testing"

	"halo/internal/cache"
	"halo/internal/measure"
	"halo/internal/profile"
	"halo/internal/workloads"
)

// TestPipelineSmoke runs the full pipeline on every workload at test
// scale: profile, group, identify, rewrite, then execute baseline and
// HALO configurations and check they terminate with identical program
// results (the optimisation must not change program semantics).
func TestPipelineSmoke(t *testing.T) {
	machine := cache.XeonW2195()
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			p := w.Build(w.TestScale)
			cfg := Config{}
			cfg.Profile.RecordTrace = true
			opt, err := Optimize(p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: %d contexts, %d graph nodes, %d groups, %d sites, %d selectors",
				w.Name, len(opt.Profile.Contexts), opt.Graph.NumNodes(),
				len(opt.Groups), len(opt.Selectors.Sites), len(opt.BitSelectors))
			if _, err := AnalyzeHDS(opt.Profile, cfg); err != nil {
				t.Fatalf("hot data streams: %v", err)
			}

			base, err := measure.Run(p, measure.Policy{Kind: measure.Jemalloc}, 99, machine)
			if err != nil {
				t.Fatal(err)
			}
			// A program whose result depends on the allocator reads
			// uninitialised or freed memory: a workload bug.
			pt, err := measure.Run(p, measure.Policy{Kind: measure.Ptmalloc}, 99, machine)
			if err != nil {
				t.Fatal(err)
			}
			if pt.Result != base.Result {
				t.Fatalf("allocator-dependent result: jemalloc %d, ptmalloc %d", base.Result, pt.Result)
			}
			rnd, err := measure.Run(p, measure.Policy{Kind: measure.RandomPools}, 99, machine)
			if err != nil {
				t.Fatal(err)
			}
			if rnd.Result != base.Result {
				t.Fatalf("allocator-dependent result: jemalloc %d, random pools %d", base.Result, rnd.Result)
			}
			halo, err := measure.Run(p, measure.Policy{
				Kind:      measure.HALO,
				Rewritten: opt.Rewrite.Prog,
				Selectors: opt.BitSelectors,
				NumBits:   opt.Rewrite.NumBits,
			}, 99, machine)
			if err != nil {
				t.Fatal(err)
			}
			if base.Result != halo.Result {
				t.Fatalf("optimisation changed program result: %d != %d", base.Result, halo.Result)
			}
			t.Logf("%s: baseline L1D miss %d (%.2f%%), HALO %d (%.2f%%); grouped %d / forwarded %d; steps %d",
				w.Name, base.Cache.L1D.Misses, base.Cache.L1D.MissRate()*100,
				halo.Cache.L1D.Misses, halo.Cache.L1D.MissRate()*100,
				halo.GroupedAllocs, halo.ForwardedAlloc, base.Steps)
		})
	}
}

// TestOptimizeFromProfileLeavesProfileUnchanged pins the contract that lets
// halod share one decoded profile across concurrent jobs: synthesis reads
// its profile and writes nothing back, whatever the configuration.
func TestOptimizeFromProfileLeavesProfileUnchanged(t *testing.T) {
	w := workloads.MustGet("povray")
	p := w.Build(w.TestScale)
	prof, err := Profile(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]profile.Context, len(prof.Contexts))
	for i, c := range prof.Contexts {
		want[i] = *c
		want[i].Chain = slices.Clone(c.Chain)
	}
	raw := prof.RawGraph.String()

	capped := Config{}
	capped.Group.MaxGroups = 1
	for _, cfg := range []Config{{}, capped} {
		opt, err := OptimizeFromProfile(p, prof, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(opt.Groups) == 0 {
			t.Fatal("no groups formed; the check would be vacuous")
		}
	}
	if len(prof.Contexts) != len(want) {
		t.Fatalf("context count changed: %d, want %d", len(prof.Contexts), len(want))
	}
	for i, c := range prof.Contexts {
		if !reflect.DeepEqual(*c, want[i]) {
			t.Fatalf("context %d changed: %s", i, c.Describe(p))
		}
	}
	if prof.RawGraph.String() != raw {
		t.Fatal("affinity graph changed")
	}
}
