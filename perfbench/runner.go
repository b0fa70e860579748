package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	ops      int // fixed op count per round for the benchmark's own tests; 0 derives it from seconds
	trace    bool
	traceOut string
}

// roundOps is the fixed number of ops in each round. An untraced run
// executes sp.rounds rounds, a traced run the first one.
func roundOps(sp spec, o options) int {
	if o.ops > 0 {
		return o.ops
	}
	n := max(minOps, int(math.Round(o.seconds*sp.opsPerSecond)))
	return (n + sp.rounds - 1) / sp.rounds
}

// A rounder is a bench that prepares each round, outside its timing.
type rounder interface {
	beforeRound() error
}

// execute prepares the inputs, sets the workload up (several times when
// untraced, reporting the median), runs the ops (in rounds when
// untraced), checks them and computes the metrics.
func execute(sp spec, o options) (result, []string, error) {
	per := roundOps(sp, o)
	setup, err := sp.prepare(o.seed, per)
	if err != nil {
		return result{}, nil, fmt.Errorf("preparing inputs: %w", err)
	}
	setups, nr := sp.setups, sp.rounds
	if o.trace {
		setups, nr = 1, 1
	}
	n := per * nr
	restoreProcs := limitProcs(sp.procs)
	defer restoreProcs()
	var b bench
	var setupS []float64
	for k := 0; k < setups; k++ {
		if b != nil {
			b.close()
		}
		runtime.GC()
		start := time.Now()
		b, err = setup()
		setupS = append(setupS, time.Since(start).Seconds())
		if err != nil {
			return result{}, nil, fmt.Errorf("set-up: %w", err)
		}
	}
	defer b.close()

	rounds := make([]loop, nr)
	for r := range rounds {
		if rb, ok := b.(rounder); ok {
			if err := rb.beforeRound(); err != nil {
				return result{}, nil, fmt.Errorf("round %d: %w", r, err)
			}
		}
		rounds[r] = measureOps(b, r*per, per, sp.gcEachOp, o.trace)
	}
	lp := concat(rounds)
	restoreProcs()
	finishFailed, q, err := b.finish()
	if err != nil {
		return result{}, nil, err
	}
	failed := min(n, lp.failed+finishFailed)
	res := result{Correct: failed == 0, Attempted: n, Failed: failed, Metrics: map[string]metric{}}
	notes := []string{fmt.Sprintf("workload=%s seed=%d ops=%d traced=%v",
		o.workload, o.seed, n, o.trace)}
	if lp.firstErr != nil {
		notes = append(notes, fmt.Sprintf("first failed op: %v", lp.firstErr))
	}

	if !o.trace {
		// Op j of every round does the same work, so its best latency and
		// CPU time over the rounds are its cost on the host's fast spells.
		best := append([]float64(nil), rounds[0].lat...)
		bestCPU := append([]float64(nil), rounds[0].cpu...)
		var tail []float64
		var pct float64
		for _, r := range rounds {
			for j := range best {
				best[j] = min(best[j], r.lat[j])
				bestCPU[j] = min(bestCPU[j], r.cpu[j])
			}
			sorted := append([]float64(nil), r.lat...)
			sort.Float64s(sorted)
			var t float64
			t, pct = tailOf(sorted)
			tail = append(tail, t)
		}
		note := fmt.Sprintf("op_tail_s is p%.4g: op %d of %d by latency, %d beyond it", pct, per-tailBeyond, per, tailBeyond)
		if nr > 1 {
			note += fmt.Sprintf(", in each of %d rounds, median over the rounds; the other timings take each op's best round", nr)
		}
		notes = append(notes, note)
		set := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
		set("ops_per_s", "1/s", float64(per)/sum(best))
		set("op_p50_s", "s", median(best))
		set("op_tail_s", "s", median(tail))
		set("cpu_s_per_op", "s", sum(bestCPU)/float64(per))
		set("alloc_mb_per_op", "MB", lp.allocMB/float64(n))
		set("setup_s", "s", median(setupS))
		set("l1d_miss_reduction_pct", "%", q.missReductionPct)
		set("sim_speedup_pct", "%", q.speedupPct)
		return res, notes, nil
	}

	res.Metrics = perLayer(lp)
	if err := writeTrace(o.traceOut, o.workload, o.seed, lp.tracers); err != nil {
		return result{}, nil, fmt.Errorf("writing trace: %w", err)
	}
	notes = append(notes, "spans written to "+o.traceOut)
	return res, notes, nil
}

// limitProcs sets GOMAXPROCS to procs when it is nonzero and returns a
// function that restores the previous value.
func limitProcs(procs int) func() {
	prev := runtime.GOMAXPROCS(0)
	if procs > 0 {
		runtime.GOMAXPROCS(procs)
	}
	return func() { runtime.GOMAXPROCS(prev) }
}

type loop struct {
	lat      []float64 // per-op latency in seconds, by op index
	cpu      []float64 // per-op process CPU seconds, by op index
	traced   []bool
	allocMB  float64 // MB the process allocated on the heap during the ops
	failed   int
	firstErr error
	tracers  []*tracer
}

// concat joins consecutive rounds' latencies, allocations, failures and
// spans.
func concat(rounds []loop) loop {
	var lp loop
	for _, r := range rounds {
		lp.lat = append(lp.lat, r.lat...)
		lp.cpu = append(lp.cpu, r.cpu...)
		lp.traced = append(lp.traced, r.traced...)
		lp.allocMB += r.allocMB
		lp.failed += r.failed
		if lp.firstErr == nil {
			lp.firstErr = r.firstErr
		}
		lp.tracers = append(lp.tracers, r.tracers...)
	}
	return lp
}

// measureOps runs ops first..first+n-1 from one goroutine; the loop's
// slices are indexed from first. It times each op's wall and CPU time and
// counts its heap allocation, outside its check. It collects garbage and
// returns the freed memory to the kernel before the loop, and with
// gcEachOp before each op, so that no op pays for its predecessor's heap.
// In a traced run every second op is traced.
func measureOps(b bench, first, n int, gcEachOp, trace bool) loop {
	lp := loop{lat: make([]float64, n), cpu: make([]float64, n), traced: make([]bool, n)}
	var tr *tracer
	if trace {
		tr = newTracer(time.Now())
		lp.tracers = []*tracer{tr}
	}
	for j := 0; j < n; j++ {
		i := first + j
		var t *tracer
		if j%2 == 1 {
			t = tr
		}
		if gcEachOp || j == 0 {
			debug.FreeOSMemory()
		}
		alloc0 := heapAllocBytes()
		cpu0 := cpuSeconds()
		start := time.Now()
		root := -1
		if t != nil {
			root = t.beginOp(i)
		}
		check, err := b.op(i, t)
		if t != nil {
			t.end(root)
		}
		lp.lat[j] = time.Since(start).Seconds()
		lp.cpu[j] = cpuSeconds() - cpu0
		lp.allocMB += float64(heapAllocBytes()-alloc0) / 1e6
		lp.traced[j] = t != nil
		if err == nil {
			err = check()
		}
		if err != nil {
			lp.failed++
			if lp.firstErr == nil {
				lp.firstErr = fmt.Errorf("op %d: %w", i, err)
			}
		}
	}
	return lp
}

// layerMetric names the per-layer self-time metric of each span name; the
// op root's self time is the part of the op no layer span covers.
var layerMetric = map[string]string{
	"op":                 "trace.unattributed_s",
	"vm":                 "vm.self_s",
	"alloc":              "alloc.s",
	"halloc":             "halloc.s",
	"cache.new":          "cache.new_s",
	"cache.consume":      "cache.consume_s",
	"profile.consume":    "profile.consume_s",
	"profile.finish":     "profile.finish_s",
	"hds.sequitur":       "hds.sequitur_s",
	"hds.sets":           "hds.sets_s",
	"hds.setpack":        "hds.setpack_s",
	"group.form":         "group.form_s",
	"identify.build":     "identify.build_s",
	"rewrite.instrument": "rewrite.instrument_s",
	"rewrite.lower":      "rewrite.lower_s",
	"job.profile":        "job.profile_s",
	"job.group":          "job.group_s",
	"job.identify":       "job.identify_s",
	"job.rewrite":        "job.rewrite_s",
	"job.lower":          "job.lower_s",
	"http.optimize":      "http.optimize_s",
	"http.wait":          "http.wait_s",
	"http.binary":        "http.binary_s",
	"http.policy":        "http.policy_s",
	"http.cached":        "http.cached_s",
}

// layerCounts are the counters traced ops record.
var layerCounts = []string{
	"cache.events", "vm.steps", "alloc.calls", "halloc.calls", "halloc.grouped",
	"halloc.forwarded", "profile.events", "profile.contexts", "hds.rules", "hds.streams",
	"hds.sets", "group.groups", "identify.selectors", "rewrite.sites",
	"service.cache_hits", "service.cache_misses", "service.coalesced",
}

// perLayer turns a traced loop into the per-layer metrics: each layer's
// mean self time per traced op (the synchronous spans' self times and
// trace.unattributed_s add up to trace.op_s), each counter per traced op,
// and the tracing overhead on the median op.
func perLayer(lp loop) map[string]metric {
	out := map[string]metric{}
	var tracedLat, plainLat []float64
	for i, l := range lp.lat {
		if lp.traced[i] {
			tracedLat = append(tracedLat, l)
		} else {
			plainLat = append(plainLat, l)
		}
	}
	ops := float64(len(tracedLat))
	self := map[string]int64{}
	var rootNs int64
	counts := map[string]uint64{}
	for _, t := range lp.tracers {
		for name, ns := range selfTimes(t.spans) {
			self[name] += ns
		}
		for _, s := range t.spans {
			if s.Parent < 0 {
				rootNs += s.BusyNs
			}
		}
		for _, m := range t.counts {
			for k, v := range m {
				counts[k] += v
			}
		}
	}
	for name := range self {
		if _, ok := layerMetric[name]; !ok {
			panic("perfbench: span without a metric: " + name) // a bug in this benchmark, not in its inputs
		}
	}
	for name, m := range layerMetric {
		out[m] = metric{Value: float64(self[name]) / 1e9 / ops, Unit: "s"}
	}
	out["trace.op_s"] = metric{Value: float64(rootNs) / 1e9 / ops, Unit: "s"}
	for _, k := range layerCounts {
		out[k] = metric{Value: float64(counts[k]) / ops, Unit: "count"}
	}
	out["trace.overhead_pct"] = metric{Value: 100 * (median(tracedLat)/median(plainLat) - 1), Unit: "%"}
	return out
}

// tailBeyond is how many samples lie beyond the tail percentile.
const tailBeyond = 10

// tailOf returns the highest percentile of sorted with tailBeyond samples
// beyond it, and that percentile. Runs shorter than minOps (the tests')
// may have fewer samples; they get the fastest op.
func tailOf(sorted []float64) (float64, float64) {
	i := max(0, len(sorted)-1-tailBeyond)
	return sorted[i], 100 * float64(i+1) / float64(len(sorted))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// heapSample reads the bytes the process has allocated on the heap so far.
var heapSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func heapAllocBytes() uint64 {
	metrics.Read(heapSample)
	return heapSample[0].Value.Uint64()
}
