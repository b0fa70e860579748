// Quickstart: run the complete HALO pipeline on one of the bundled
// benchmark programs and measure the effect.
//
// The flow is the paper's Figure 4: profile the binary on its training
// input, group its allocation contexts, build selectors, rewrite the
// binary, then run the rewritten binary with the specialised allocator and
// compare against the jemalloc-like baseline.
//
//	go run ./examples/quickstart [workload]
package main

import (
	"fmt"
	"log"
	"os"

	"halo/internal/cache"
	"halo/internal/core"
	"halo/internal/measure"
	"halo/internal/workloads"
)

func main() {
	name := "povray"
	if len(os.Args) > 1 {
		name = os.Args[1]
	}
	w, ok := workloads.Get(name)
	if !ok {
		log.Fatalf("unknown workload %q; available: %v", name, workloads.Names())
	}

	// 1. Build the target "binary" at training scale and run the HALO
	// pipeline: profiling, grouping, identification, rewriting.
	fmt.Printf("== %s: profiling test input (scale %d) ==\n", w.Name, w.TestScale)
	testProg := w.Build(w.TestScale)
	cfg := core.Config{}
	cfg.Group.MaxGroups = w.MaxGroups // the artifact appendix's --max-groups
	opt, err := core.Optimize(testProg, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(opt.GroupReport())
	fmt.Printf("instrumented %d call sites (%d instructions inserted)\n\n",
		opt.Rewrite.NumBits, opt.Rewrite.Inserted)

	// 2. Apply the profile to the larger reference input: rewrite the ref
	// binary at the same sites and lower the selectors.
	refProg := w.Build(w.RefScale)
	pol, err := opt.HALOPolicy(refProg, w.HallocConfig())
	if err != nil {
		log.Fatal(err)
	}

	// 3. Measure both configurations on the simulated Xeon W-2195.
	machine := cache.XeonW2195()
	base, err := measure.Run(refProg, measure.Policy{Kind: measure.Jemalloc}, 1001, machine)
	if err != nil {
		log.Fatal(err)
	}
	hal, err := measure.Run(refProg, pol, 1001, machine)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("== ref input (scale %d) ==\n", w.RefScale)
	fmt.Printf("baseline (jemalloc-like): %s\n", base.Cache)
	fmt.Printf("HALO:                     %s\n", hal.Cache)
	fmt.Printf("grouped allocations: %d (forwarded %d)\n", hal.GroupedAllocs, hal.ForwardedAlloc)
	fmt.Printf("L1D miss reduction: %+.2f%%\n",
		measure.Improvement(float64(base.Cache.L1D.Misses), float64(hal.Cache.L1D.Misses)))
	fmt.Printf("speedup:            %+.2f%%  (%.4fs -> %.4fs simulated)\n",
		measure.Improvement(base.Seconds, hal.Seconds), base.Seconds, hal.Seconds)
}
