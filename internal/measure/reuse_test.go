package measure_test

import (
	"testing"

	"halo/internal/cache"
	"halo/internal/core"
	"halo/internal/isa"
	"halo/internal/measure"
	"halo/internal/pool"
	"halo/internal/workloads"
)

// TestRunReuseMatchesFresh: povray and omnetpp under jemalloc and HALO,
// run concurrently and repeatedly through pool.Map, so that most runs
// take a hierarchy another run has just released, give exactly the
// results each gave on a newly allocated hierarchy.
func TestRunReuseMatchesFresh(t *testing.T) {
	machine := cache.XeonW2195()
	type config struct {
		name string
		prog *isa.Program
		pol  measure.Policy
	}
	var configs []config
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
			configs = append(configs, config{name + " under " + pol.Kind.String(), p, pol})
		}
	}

	// Taking MaxSpares hierarchies empties the spares, and taking one
	// more after each reference run takes back the one it released, so
	// every reference run allocates its own.
	for i := 0; i < cache.MaxSpares; i++ {
		cache.New(machine)
	}
	want := make([]measure.RunResult, len(configs))
	for i, c := range configs {
		var err error
		if want[i], err = measure.Run(c.prog, c.pol, 5, machine); err != nil {
			t.Fatal(err)
		}
		cache.New(machine)
	}

	const rounds = 3
	got := make([]measure.RunResult, rounds*len(configs))
	err := pool.Map(len(got), 0, func(k int) error {
		c := configs[k%len(configs)]
		var err error
		got[k], err = measure.Run(c.prog, c.pol, 5, machine)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for k, res := range got {
		if i := k % len(configs); res != want[i] {
			t.Fatalf("%s, run %d: %+v on a reused hierarchy, %+v on a new one", configs[i].name, k, res, want[i])
		}
	}
}
