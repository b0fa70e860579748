// Package measure runs programs under the evaluation's allocator policies
// and collects the metrics the paper reports: L1 data-cache misses, a
// cycle-model execution time, allocator statistics and fragmentation. It
// follows §5.1's methodology: several trials per configuration, the first
// discarded, medians reported with 25th/75th percentile error bars.
//
// Hardware noise does not exist in a simulator, so trials vary the
// workload's RNG seed instead (input variation), which is what makes the
// quartile spread meaningful here. Trials are seed-independent of each
// other, so the harness runs them on a bounded worker pool; summaries are
// assembled from results in trial order and are therefore identical at
// any worker count.
package measure

import (
	"fmt"

	"halo/internal/alloc"
	"halo/internal/bits"
	"halo/internal/cache"
	"halo/internal/halloc"
	"halo/internal/isa"
	"halo/internal/mem"
	"halo/internal/pool"
	"halo/internal/vm"
)

// PolicyKind selects the allocator configuration under test.
type PolicyKind int

// The measured configurations of §5.
const (
	// Jemalloc is the baseline: the unmodified binary under the
	// size-segregated allocator.
	Jemalloc PolicyKind = iota
	// Ptmalloc runs the unmodified binary under the boundary-tag
	// allocator (the §5.1 jemalloc-vs-ptmalloc2 baseline experiment).
	Ptmalloc
	// HALO runs the rewritten binary with the selector-classified group
	// allocator over the jemalloc-like fallback.
	HALO
	// HDS runs the unmodified binary with the group allocator classified
	// by immediate call site (the Chilimbi & Shaham replication).
	HDS
	// RandomPools runs the unmodified binary with the group allocator
	// assigning small objects to random pools (Figure 15).
	RandomPools
)

// String names the policy.
func (k PolicyKind) String() string {
	switch k {
	case Jemalloc:
		return "jemalloc"
	case Ptmalloc:
		return "ptmalloc"
	case HALO:
		return "halo"
	case HDS:
		return "hds"
	case RandomPools:
		return "random"
	}
	return fmt.Sprintf("policy(%d)", int(k))
}

// Policy is a fully specified allocator configuration.
type Policy struct {
	Kind PolicyKind

	// HALO policy inputs.
	Rewritten *isa.Program         // instrumented binary
	Selectors []halloc.BitSelector // lowered selectors
	NumBits   int                  // group-state width

	// HDS policy input.
	SiteGroups map[isa.Addr]int

	// RandomPools input.
	Pools int

	// Group-allocator tuning (HALO, HDS, RandomPools).
	Halloc halloc.Config
}

// RunResult is the outcome of a single run.
type RunResult struct {
	Result int64
	Steps  uint64
	Loads  uint64
	Stores uint64

	Cache   cache.Stats
	Cycles  uint64
	Seconds float64

	Alloc alloc.Stats // default/fallback allocator statistics

	// Group-allocator statistics (zero for baseline policies).
	GroupStats     alloc.Stats
	GroupedAllocs  uint64
	ForwardedAlloc uint64
	FragPct        float64
	FragBytes      uint64
}

// Run executes the program once under the policy with the given seed.
func Run(p *isa.Program, policy Policy, seed uint64, machine cache.Config) (RunResult, error) {
	memory := mem.NewMemory()
	osm := mem.NewOS(memory)
	fallback := alloc.NewSizeSeg(osm)

	var allocator vm.Allocator
	var galloc *halloc.GroupAlloc
	var state *bits.Vec
	var defStats func() alloc.Stats = fallback.Stats

	switch policy.Kind {
	case Jemalloc:
		allocator = fallback
	case Ptmalloc:
		bt := alloc.NewBoundaryTag(osm)
		allocator = bt
		defStats = bt.Stats
	case HALO:
		if policy.Rewritten == nil {
			return RunResult{}, fmt.Errorf("measure: HALO policy without rewritten binary")
		}
		n := policy.NumBits
		if n == 0 {
			n = vm.DefaultGroupBits
		}
		state = bits.New(n)
		cls := halloc.NewSelectorClassifier(state, policy.Selectors)
		galloc = halloc.New(osm, fallback, cls, policy.Halloc)
		allocator = galloc
	case HDS:
		cls := halloc.NewSiteClassifier(policy.SiteGroups)
		galloc = halloc.New(osm, fallback, cls, policy.Halloc)
		allocator = galloc
	case RandomPools:
		pools := policy.Pools
		if pools == 0 {
			pools = 4
		}
		cls := halloc.NewRandomClassifier(pools, seed|1)
		galloc = halloc.New(osm, fallback, cls, policy.Halloc)
		allocator = galloc
	default:
		return RunResult{}, fmt.Errorf("measure: unknown policy %v", policy.Kind)
	}

	prog := p
	if policy.Kind == HALO {
		prog = policy.Rewritten
	}

	// The hierarchy consumes the VM's event stream batch-at-a-time, on a
	// borrowed pool helper when one is free, so the cache model overlaps
	// the VM; hier is read only after Run returns, and released for the
	// next run once read. A panic leaves it to the GC: the helper may
	// have died mid-batch.
	hier := cache.New(machine)
	v := vm.New(prog, memory, allocator, hier, vm.Config{
		Seed:        seed,
		GroupState:  state,
		OverlapSink: true,
	})
	res, err := v.Run()
	if err != nil {
		hier.Release()
		return RunResult{}, fmt.Errorf("measure: %s under %s: %w", prog.Name, policy.Kind, err)
	}

	out := RunResult{
		Result:  res,
		Steps:   v.Steps(),
		Loads:   v.Loads(),
		Stores:  v.Stores(),
		Cache:   hier.Stats(),
		Cycles:  hier.Cycles(v.Steps()),
		Seconds: hier.Seconds(v.Steps()),
		Alloc:   defStats(),
	}
	hier.Release()
	if galloc != nil {
		out.GroupStats = galloc.Stats()
		out.GroupedAllocs = galloc.GroupedAllocs()
		out.ForwardedAlloc = galloc.ForwardedAllocs()
		out.FragPct, out.FragBytes = galloc.FragAtPeak()
	}
	return out, nil
}

// TotalLiveObjects reports objects still live at program exit across the
// fallback and group allocators — one half of the "final heap contents"
// the adversarial differential tests compare across policies.
func (r RunResult) TotalLiveObjects() uint64 {
	return r.Alloc.LiveObjects + r.GroupStats.LiveObjects
}

// TotalLiveBytes reports payload bytes still live at program exit across
// the fallback and group allocators.
func (r RunResult) TotalLiveBytes() uint64 {
	return r.Alloc.LiveBytes + r.GroupStats.LiveBytes
}

// Summary aggregates trials per §5.1: medians with 25th/75th percentiles.
type Summary struct {
	Trials  int
	Median  RunResult
	Seconds Quartiles
	L1DMiss Quartiles
	Cycles  Quartiles
}

// MeasureTrials runs trials+1 executions (discarding the first, per the
// paper's steady-state warm-up) with seeds baseSeed, baseSeed+1, ... and
// summarises them, fanning the trials out over internal/pool. Each trial
// builds its own memory, allocator and VM and takes a cache hierarchy of
// its own from cache.New, a released one reset to the state of a new one
// when a spare is free, so trials are independent; results are gathered
// by trial index, making the summary bit-identical at any pool width.
func MeasureTrials(p *isa.Program, policy Policy, trials int, baseSeed uint64, machine cache.Config) (Summary, error) {
	if trials < 1 {
		trials = 1
	}
	// Pre-warm the decode cache before fanning out: every trial executes
	// the same program (the rewritten one for HALO), so one decode up front
	// keeps the workers from racing on redundant lowering passes.
	vm.Predecode(p)
	if policy.Kind == HALO && policy.Rewritten != nil {
		vm.Predecode(policy.Rewritten)
	}
	all := make([]RunResult, trials+1)
	err := pool.Map(trials+1, 0, func(t int) error {
		r, err := Run(p, policy, baseSeed+uint64(t), machine)
		if err != nil {
			return err
		}
		all[t] = r
		return nil
	})
	if err != nil {
		return Summary{}, err
	}
	results := all[1:] // discard the warm-up trial
	var secs, misses, cycles []float64
	for _, r := range results {
		secs = append(secs, r.Seconds)
		misses = append(misses, float64(r.Cache.L1D.Misses))
		cycles = append(cycles, float64(r.Cycles))
	}
	s := Summary{
		Trials:  trials,
		Seconds: QuartilesOf(secs),
		L1DMiss: QuartilesOf(misses),
		Cycles:  QuartilesOf(cycles),
	}
	// The representative run: the one whose cycle count is the median.
	bestIdx, bestDist := 0, -1.0
	for i, r := range results {
		d := float64(r.Cycles) - s.Cycles.Median
		if d < 0 {
			d = -d
		}
		if bestDist < 0 || d < bestDist {
			bestDist, bestIdx = d, i
		}
	}
	s.Median = results[bestIdx]
	return s, nil
}
