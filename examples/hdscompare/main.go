// HDS comparison: the §5.2 representation-size argument, live. For two
// workloads — povray (wrapper-heavy) and roms (regular, stream-explosive) —
// run both HALO's affinity-graph analysis and the hot-data-streams
// analysis over the same profile and contrast what each needs to describe
// the program and what policy each derives.
//
//	go run ./examples/hdscompare
package main

import (
	"fmt"
	"log"

	"halo/internal/core"
	"halo/internal/workloads"
)

func main() {
	for _, name := range []string{"povray", "roms"} {
		w, _ := workloads.Get(name)
		p := w.Build(w.TestScale)
		cfg := core.Config{}
		cfg.Profile.RecordTrace = true
		if w.MaxGroups > 0 {
			cfg.Group.MaxGroups = w.MaxGroups
			cfg.HDS.MaxGroups = w.MaxGroups
		}

		opt, err := core.Optimize(p, cfg)
		if err != nil {
			log.Fatal(err)
		}
		hr, err := core.AnalyzeHDS(opt.Profile, cfg)
		if err != nil {
			log.Fatal(err)
		}

		fmt.Printf("== %s ==\n", name)
		fmt.Printf("HALO:  %d affinity-graph nodes -> %d groups, identified by %d call sites\n",
			opt.Graph.NumNodes(), len(opt.Groups), len(opt.Selectors.Sites))
		fmt.Printf("HDS:   %d grammar rules -> %d candidate streams -> %d hot streams -> %d co-allocation sets\n",
			hr.Rules, hr.Candidates, hr.Streams, len(hr.Sets))
		ratio := float64(hr.Streams) / float64(max(1, opt.Graph.NumNodes()))
		fmt.Printf("representation ratio (hot streams per graph node): %.0fx\n", ratio)
		fmt.Printf("runtime policy: HALO monitors %d sites with selectors; HDS keys %d sites directly\n\n",
			len(opt.Selectors.Sites), len(hr.SiteGroups))
	}
	fmt.Println("The paper reports 31 affinity nodes against >150,000 hot data")
	fmt.Println("streams for roms (§5.2); the ratio above reproduces that blow-up")
	fmt.Println("at this simulation's scale.")
}
