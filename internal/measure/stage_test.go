package measure_test

import (
	"runtime"
	"testing"

	"halo/internal/cache"
	"halo/internal/core"
	"halo/internal/measure"
	"halo/internal/pool/pooltest"
	"halo/internal/workloads"
)

// TestRunStagedMatchesInline: measure.Run gives the same RunResult with
// the cache model inline (GOMAXPROCS 1: no helper in the budget) and
// staged on a pool helper (GOMAXPROCS 2), under jemalloc and HALO, and
// the helper is back in the budget afterwards.
func TestRunStagedMatchesInline(t *testing.T) {
	machine := cache.XeonW2195()
	for _, name := range []string{"povray", "omnetpp"} {
		w := workloads.MustGet(name)
		p := w.Build(w.TestScale)
		opt, err := core.Optimize(p, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		for _, pol := range []measure.Policy{
			{Kind: measure.Jemalloc},
			{Kind: measure.HALO, Rewritten: opt.Rewrite.Prog, Selectors: opt.BitSelectors,
				NumBits: opt.Rewrite.NumBits, Halloc: w.HallocConfig()},
		} {
			var res [2]measure.RunResult
			for i, procs := range []int{1, 2} {
				prev := runtime.GOMAXPROCS(procs)
				res[i], err = measure.Run(p, pol, 5, machine)
				if err == nil && procs > 1 {
					pooltest.RequireHelper(t)
				}
				runtime.GOMAXPROCS(prev)
				if err != nil {
					t.Fatal(err)
				}
			}
			if res[0] != res[1] {
				t.Fatalf("%s under %s: staged %+v, inline %+v", name, pol.Kind, res[1], res[0])
			}
			if pol.Kind == measure.HALO && res[0].GroupedAllocs == 0 {
				t.Fatalf("%s: HALO grouped nothing", name)
			}
		}
	}
}
