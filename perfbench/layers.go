package main

import (
	"fmt"

	"halo/internal/alloc"
	"halo/internal/bits"
	"halo/internal/cache"
	"halo/internal/core"
	"halo/internal/halloc"
	"halo/internal/isa"
	"halo/internal/measure"
	"halo/internal/mem"
	"halo/internal/profile"
	"halo/internal/vm"
)

// runTraced is measure.Run for the jemalloc and HALO policies, composed
// from the same layer calls with each boundary timed: cache.New, the VM,
// the cache model's ConsumeEvents, and the allocators (halloc and its
// fallback separately). Its RunResult must equal measure.Run's, which the
// evaluate workload checks on every traced op.
func runTraced(t *tracer, parent int, p *isa.Program, pol measure.Policy, seed uint64, machine cache.Config) (measure.RunResult, error) {
	memory := mem.NewMemory()
	osm := mem.NewOS(memory)
	fallback := alloc.NewSizeSeg(osm)

	var (
		top      vm.Allocator
		topTimer *timedAlloc
		fbTimer  *timedAlloc
		galloc   *halloc.GroupAlloc
		state    *bits.Vec
	)
	prog := p
	switch pol.Kind {
	case measure.Jemalloc:
		top, topTimer = timeAlloc(fallback)
	case measure.HALO:
		n := pol.NumBits
		if n == 0 {
			n = vm.DefaultGroupBits
		}
		state = bits.New(n)
		cls := halloc.NewSelectorClassifier(state, pol.Selectors)
		var fb alloc.Allocator
		fb, fbTimer = timeAlloc(fallback)
		galloc = halloc.New(osm, fb, cls, pol.Halloc)
		top, topTimer = timeAlloc(galloc)
		prog = pol.Rewritten
	default:
		return measure.RunResult{}, fmt.Errorf("traced run: unsupported policy %v", pol.Kind)
	}

	id := t.begin("cache.new", parent)
	hier := cache.New(machine)
	t.end(id)
	sink := &timedSink{inner: hier}
	v := vm.New(prog, memory, top, sink, vm.Config{Seed: seed, GroupState: state})
	vmID := t.begin("vm", parent)
	res, err := v.Run()
	t.end(vmID)
	t.aggregate("cache.consume", vmID, sink.busy, sink.batches)
	t.count("cache.events", sink.events)
	t.count("vm.steps", v.Steps())
	if galloc != nil {
		hID := t.aggregate("halloc", vmID, topTimer.busy, topTimer.calls)
		t.aggregate("alloc", hID, fbTimer.busy, fbTimer.calls)
		t.count("halloc.calls", topTimer.calls)
		t.count("alloc.calls", fbTimer.calls)
		t.count("halloc.grouped", galloc.GroupedAllocs())
		t.count("halloc.forwarded", galloc.ForwardedAllocs())
	} else {
		t.aggregate("alloc", vmID, topTimer.busy, topTimer.calls)
		t.count("alloc.calls", topTimer.calls)
	}
	if err != nil {
		return measure.RunResult{}, fmt.Errorf("traced run: %s under %s: %w", prog.Name, pol.Kind, err)
	}

	out := measure.RunResult{
		Result:  res,
		Steps:   v.Steps(),
		Loads:   v.Loads(),
		Stores:  v.Stores(),
		Cache:   hier.Stats(),
		Cycles:  hier.Cycles(v.Steps()),
		Seconds: hier.Seconds(v.Steps()),
		Alloc:   fallback.Stats(),
	}
	if galloc != nil {
		out.GroupStats = galloc.Stats()
		out.GroupedAllocs = galloc.GroupedAllocs()
		out.ForwardedAlloc = galloc.ForwardedAllocs()
		out.FragPct, out.FragBytes = galloc.FragAtPeak()
	}
	return out, nil
}

// profileTraced is core.Profile composed from the same layer calls with
// the VM, the profiler's ConsumeEvents and Finish, and the allocator
// timed. cfg.ProfileSeed must be set (core.Profile's zero-seed default is
// not reproduced). The pipeline workload checks that the profile it
// returns encodes to the same image as core.Profile's.
func profileTraced(t *tracer, parent int, p *isa.Program, cfg core.Config) (*profile.Profile, error) {
	if cfg.ProfileSeed == 0 {
		return nil, fmt.Errorf("traced profile: zero training seed")
	}
	prof := profile.New(p, cfg.Profile)
	memory := mem.NewMemory()
	osm := mem.NewOS(memory)
	top, timer := timeAlloc(alloc.NewSizeSeg(osm))
	sink := &timedSink{inner: prof}
	v := vm.New(p, memory, top, sink, vm.Config{
		Seed:      cfg.ProfileSeed,
		MaxSteps:  cfg.ProfileMaxSteps,
		BatchSize: cfg.ProfileBatchSize,
	})
	vmID := t.begin("vm", parent)
	_, err := v.Run()
	t.end(vmID)
	t.aggregate("profile.consume", vmID, sink.busy, sink.batches)
	t.aggregate("alloc", vmID, timer.busy, timer.calls)
	t.count("vm.steps", v.Steps())
	t.count("alloc.calls", timer.calls)
	if err != nil {
		return nil, fmt.Errorf("traced profile: %w", err)
	}
	id := t.begin("profile.finish", parent)
	out := prof.Finish()
	t.end(id)
	t.count("profile.events", out.Events)
	t.count("profile.contexts", uint64(len(out.Contexts)))
	return out, nil
}
