// Command halo drives the HALO pipeline over program binaries, mirroring
// the paper artifact's workflow (halo baseline / halo run) plus the
// individual stages:
//
//	halo build         -w povray -scale test -o povray.hbin  build a workload binary
//	halo disasm        povray.hbin                           disassemble a binary
//	halo profile       [-seed N] [-o p.hprof] povray.hbin    profile; print graph, save profile
//	halo profile-merge -o m.hprof a.hprof b.hprof ...        merge saved profiles
//	halo groups        [flags] povray.hbin                   print allocation groups (Figure 9 view)
//	halo opt           [-profile m.hprof] -o ... povray.hbin rewrite + emit runtime policy
//	halo run           [-policy p.json] [-alloc halo|jemalloc|ptmalloc|random] povray.hbin
//	halo pipeline      -w povray                             end-to-end: profile test, measure ref
//	halo list                                                list workloads
//
// Flags come before the positional binary argument.
//
// Binaries are the encoded mini-ISA images of internal/isa; profiles are
// the versioned images of internal/profstore; policies are the JSON
// documents of internal/policy, the same ones halod serves.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"halo/internal/cache"
	"halo/internal/core"
	"halo/internal/group"
	"halo/internal/isa"
	"halo/internal/measure"
	"halo/internal/obs"
	"halo/internal/policy"
	"halo/internal/profile"
	"halo/internal/profstore"
	"halo/internal/workloads"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "build":
		err = cmdBuild(args)
	case "disasm":
		err = cmdDisasm(args)
	case "profile":
		err = cmdProfile(args)
	case "profile-merge":
		err = cmdProfileMerge(args)
	case "groups":
		err = cmdGroups(args)
	case "opt":
		err = cmdOpt(args)
	case "run":
		err = cmdRun(args)
	case "pipeline":
		err = cmdPipeline(args)
	case "list":
		err = cmdList(args)
	case "version":
		fmt.Println(obs.Build().String())
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "halo: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "halo %s: %v\n", cmd, err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: halo <command> [flags]

commands:
  build          build a workload into a binary image
  disasm         disassemble a binary image
  profile        profile a binary; print its affinity graph, save with -o
  profile-merge  merge saved profiles from independent training runs
                 (images hold raw counts only: one profile merges to itself)
  groups         print the allocation groups formed from a profile
  opt            run the full pipeline, emit rewritten binary + policy
  run            execute a binary under an allocator policy
  pipeline       end-to-end: profile on test input, measure on ref input
  list           list available workloads
  version        print build information`)
}

func loadProgram(path string) (*isa.Program, error) {
	img, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return isa.Decode(img)
}

func cmdBuild(args []string) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	name := fs.String("w", "", "workload name")
	scaleSel := fs.String("scale", "test", "test, ref, or an integer")
	out := fs.String("o", "", "output path (default <workload>.hbin)")
	fs.Parse(args)
	w, ok := workloads.Get(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q (try: halo list)", *name)
	}
	scale := w.TestScale
	switch *scaleSel {
	case "test":
	case "ref":
		scale = w.RefScale
	default:
		if _, err := fmt.Sscanf(*scaleSel, "%d", &scale); err != nil {
			return fmt.Errorf("bad scale %q", *scaleSel)
		}
	}
	p := w.Build(scale)
	img, err := p.Encode()
	if err != nil {
		return err
	}
	path := *out
	if path == "" {
		path = *name + ".hbin"
	}
	if err := os.WriteFile(path, img, 0o644); err != nil {
		return err
	}
	st := p.Stat()
	fmt.Printf("wrote %s: %d bytes, %d functions (%d lib), %d instructions, %d call sites\n",
		path, len(img), st.Funcs, st.LibFuncs, st.Insts, st.CallSites)
	return nil
}

func cmdDisasm(args []string) error {
	fs := flag.NewFlagSet("disasm", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: halo disasm <binary>")
	}
	p, err := loadProgram(fs.Arg(0))
	if err != nil {
		return err
	}
	fmt.Print(p.Disasm())
	return nil
}

func cmdProfile(args []string) error {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	seed := fs.Uint64("seed", 7, "training seed")
	runs := fs.Int("runs", 1, "independent training runs (seeds seed, seed+1, ...), profiled concurrently and merged")
	dist := fs.Uint64("affinity-distance", 128, "affinity distance A in bytes")
	top := fs.Int("top", 20, "contexts to print")
	out := fs.String("o", "", "save the profile image (input to profile-merge, opt, halod)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: halo profile [flags] <binary>")
	}
	p, err := loadProgram(fs.Arg(0))
	if err != nil {
		return err
	}
	cfg := core.Config{ProfileSeed: *seed}
	cfg.Profile.AffinityDistance = *dist
	prof, err := core.ProfileN(p, cfg, *runs)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d allocations (%d tracked), %d contexts, %d macro accesses\n",
		p.Name, prof.TotalAllocs, prof.TrackedAllocs, len(prof.Contexts), prof.RawGraph.TotalAccesses())
	graph := group.Filter(prof.RawGraph, group.Params{})
	fmt.Printf("affinity graph: %d nodes, %d edges after 90%% coverage filter (%d raw nodes)\n",
		graph.NumNodes(), graph.NumEdges(), prof.RawGraph.NumNodes())
	fmt.Printf("\nhottest contexts:\n%s", prof.DescribeTop(graph, *top))
	if *out != "" {
		if err := profstore.Save(*out, prof); err != nil {
			return err
		}
		fmt.Printf("\nwrote profile %s\n", *out)
	}
	return nil
}

func cmdProfileMerge(args []string) error {
	fs := flag.NewFlagSet("profile-merge", flag.ExitOnError)
	out := fs.String("o", "", "output profile image (omit to only print the merged summary)")
	fs.Parse(args)
	if fs.NArg() < 1 {
		return fmt.Errorf("usage: halo profile-merge [-o merged.hprof] <profile>...")
	}
	profs := make([]*profile.Profile, 0, fs.NArg())
	for _, path := range fs.Args() {
		prof, err := profstore.Load(path)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		fmt.Printf("%s: program %s, %d contexts, %d accesses\n",
			path, prof.ProgName, len(prof.Contexts), prof.RawGraph.TotalAccesses())
		profs = append(profs, prof)
	}
	merged, err := profstore.Merge(profs...)
	if err != nil {
		return err
	}
	graph := group.Filter(merged.RawGraph, group.Params{})
	fmt.Printf("merged: program %s, %d contexts, %d accesses, graph %d nodes / %d edges (%d raw nodes)\n",
		merged.ProgName, len(merged.Contexts), merged.RawGraph.TotalAccesses(),
		graph.NumNodes(), graph.NumEdges(), merged.RawGraph.NumNodes())
	if *out != "" {
		if err := profstore.Save(*out, merged); err != nil {
			return err
		}
		fmt.Printf("wrote profile %s\n", *out)
	}
	return nil
}

func cmdGroups(args []string) error {
	fs := flag.NewFlagSet("groups", flag.ExitOnError)
	seed := fs.Uint64("seed", 7, "training seed")
	maxGroups := fs.Int("max-groups", 0, "cap the number of groups")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: halo groups [flags] <binary>")
	}
	p, err := loadProgram(fs.Arg(0))
	if err != nil {
		return err
	}
	cfg := core.Config{ProfileSeed: *seed}
	cfg.Group.MaxGroups = *maxGroups
	opt, err := core.Optimize(p, cfg)
	if err != nil {
		return err
	}
	fmt.Print(opt.GroupReport())
	fmt.Printf("\nselectors:\n")
	for _, s := range opt.Selectors.Selectors {
		fmt.Printf("  %s\n", s)
	}
	return nil
}

func cmdOpt(args []string) error {
	fs := flag.NewFlagSet("opt", flag.ExitOnError)
	out := fs.String("o", "", "rewritten binary path (default <in>.halo.hbin)")
	polOut := fs.String("policy", "", "policy path (default <in>.policy.json)")
	seed := fs.Uint64("seed", 7, "training seed")
	profPath := fs.String("profile", "", "use a saved profile image instead of a fresh training run")
	chunk := fs.Uint64("chunk-size", 0, "group chunk size")
	maxSpare := fs.Int("max-spare-chunks", 1, "spare chunks kept")
	maxGroups := fs.Int("max-groups", 0, "cap the number of groups")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: halo opt [flags] <binary>")
	}
	in := fs.Arg(0)
	p, err := loadProgram(in)
	if err != nil {
		return err
	}
	cfg := core.Config{ProfileSeed: *seed}
	cfg.Group.MaxGroups = *maxGroups
	var opt *core.Optimized
	if *profPath != "" {
		prof, err := profstore.Load(*profPath)
		if err != nil {
			return err
		}
		if prof.ProgName != p.Name {
			return fmt.Errorf("profile %s is for program %q, not %q", *profPath, prof.ProgName, p.Name)
		}
		opt, err = core.OptimizeFromProfile(p, prof, cfg)
		if err != nil {
			return err
		}
	} else if opt, err = core.Optimize(p, cfg); err != nil {
		return err
	}
	img, err := opt.Rewrite.Prog.Encode()
	if err != nil {
		return err
	}
	outPath := *out
	if outPath == "" {
		outPath = strings.TrimSuffix(in, ".hbin") + ".halo.hbin"
	}
	if err := os.WriteFile(outPath, img, 0o644); err != nil {
		return err
	}
	hc := policy.Halloc{ChunkSize: *chunk, NoSpare: *maxSpare == 0}
	// The allocator's default of one spare chunk stays implicit, so a
	// default-flag document matches the one halod serves.
	if *maxSpare > 1 {
		hc.MaxSpareChunks = *maxSpare
	}
	pol := policy.New(opt, hc)
	polPath := *polOut
	if polPath == "" {
		polPath = strings.TrimSuffix(in, ".hbin") + ".policy.json"
	}
	data, err := json.MarshalIndent(pol, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(polPath, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d instrumented sites, %d inserted instructions) and %s (%d selectors)\n",
		outPath, opt.Rewrite.NumBits, opt.Rewrite.Inserted, polPath, len(pol.Selectors))
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	allocName := fs.String("alloc", "jemalloc", "jemalloc, ptmalloc, halo, or random")
	polPath := fs.String("policy", "", "policy JSON for -alloc halo")
	seed := fs.Uint64("seed", 1001, "run seed")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: halo run [flags] <binary>")
	}
	p, err := loadProgram(fs.Arg(0))
	if err != nil {
		return err
	}
	pol := measure.Policy{}
	switch *allocName {
	case "jemalloc":
		pol.Kind = measure.Jemalloc
	case "ptmalloc":
		pol.Kind = measure.Ptmalloc
	case "random":
		pol.Kind = measure.RandomPools
	case "halo":
		if *polPath == "" {
			return fmt.Errorf("-alloc halo requires -policy")
		}
		data, err := os.ReadFile(*polPath)
		if err != nil {
			return err
		}
		var doc policy.Doc
		if err := json.Unmarshal(data, &doc); err != nil {
			return err
		}
		// The input should already be the rewritten binary.
		if pol, err = doc.HALOPolicy(p); err != nil {
			return fmt.Errorf("%s: %w", *polPath, err)
		}
	default:
		return fmt.Errorf("unknown allocator %q", *allocName)
	}
	res, err := measure.Run(p, pol, *seed, cache.XeonW2195())
	if err != nil {
		return err
	}
	fmt.Printf("result=%d steps=%d loads=%d stores=%d\n", res.Result, res.Steps, res.Loads, res.Stores)
	fmt.Printf("%s\n", res.Cache)
	fmt.Printf("cycles=%d time=%.6fs\n", res.Cycles, res.Seconds)
	fmt.Printf("allocator: %s", res.Alloc)
	if res.GroupedAllocs+res.ForwardedAlloc > 0 {
		fmt.Printf("; grouped=%d forwarded=%d frag=%.2f%%/%dB",
			res.GroupedAllocs, res.ForwardedAlloc, res.FragPct, res.FragBytes)
	}
	fmt.Println()
	return nil
}

func cmdPipeline(args []string) error {
	fs := flag.NewFlagSet("pipeline", flag.ExitOnError)
	name := fs.String("w", "", "workload name")
	trials := fs.Int("trials", 5, "measured trials")
	fs.Parse(args)
	w, ok := workloads.Get(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q (try: halo list)", *name)
	}
	machine := cache.XeonW2195()
	test := w.Build(w.TestScale)
	cfg := core.Config{}
	cfg.Group.MaxGroups = w.MaxGroups
	opt, err := core.Optimize(test, cfg)
	if err != nil {
		return err
	}
	fmt.Print(opt.GroupReport())
	ref := w.Build(w.RefScale)
	pol, err := opt.HALOPolicy(ref, w.HallocConfig())
	if err != nil {
		return err
	}
	base, err := measure.MeasureTrials(ref, measure.Policy{Kind: measure.Jemalloc}, *trials, 1000, machine)
	if err != nil {
		return err
	}
	haloSum, err := measure.MeasureTrials(ref, pol, *trials, 1000, machine)
	if err != nil {
		return err
	}
	miss := measure.Improvement(base.L1DMiss.Median, haloSum.L1DMiss.Median)
	speed := measure.Improvement(base.Seconds.Median, haloSum.Seconds.Median)
	fmt.Printf("\nref input (%d trials): L1D miss reduction %+.2f%%, speedup %+.2f%%\n", *trials, miss, speed)
	fmt.Printf("baseline: %.0f misses, %.6fs; HALO: %.0f misses, %.6fs\n",
		base.L1DMiss.Median, base.Seconds.Median, haloSum.L1DMiss.Median, haloSum.Seconds.Median)
	return nil
}

func cmdList(args []string) error {
	names := workloads.Names()
	sort.Strings(names)
	for _, n := range names {
		w := workloads.MustGet(n)
		fmt.Printf("%-10s test=%-6d ref=%-6d %s\n", w.Name, w.TestScale, w.RefScale, w.Description)
	}
	return nil
}
