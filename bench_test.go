// Benchmarks regenerating the paper's evaluation artefacts (one benchmark
// per table/figure, §5) plus microbenchmarks of the pipeline stages.
// Reported custom metrics carry the experiment's headline numbers:
// L1D_miss_reduction_% and speedup_% for the headline figures.
//
//	go test -bench=. -benchmem
package halo

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"halo/internal/alloc"
	"halo/internal/cache"
	"halo/internal/core"
	"halo/internal/group"
	"halo/internal/halloc"
	"halo/internal/hds"
	"halo/internal/isa"
	"halo/internal/measure"
	"halo/internal/mem"
	"halo/internal/obs"
	"halo/internal/profile"
	"halo/internal/profstore"
	"halo/internal/rewrite"
	"halo/internal/service"
	"halo/internal/vm"
	"halo/internal/workloads"
)

// pipelineFor prepares the measurement policies for one workload at test
// scale (benchmarks use test inputs to stay fast).
func pipelineFor(b *testing.B, name string) (*isa.Program, *core.Optimized, measure.Policy, measure.Policy) {
	b.Helper()
	w := workloads.MustGet(name)
	p := w.Build(w.TestScale)
	cfg := core.Config{}
	cfg.Profile.RecordTrace = true
	if w.MaxGroups > 0 {
		cfg.Group.MaxGroups = w.MaxGroups
		cfg.HDS.MaxGroups = w.MaxGroups
	}
	opt, err := core.Optimize(p, cfg)
	if err != nil {
		b.Fatal(err)
	}
	hr, err := core.AnalyzeHDS(opt.Profile, cfg)
	if err != nil {
		b.Fatal(err)
	}
	hc := w.HallocConfig()
	haloPol, err := opt.HALOPolicy(p, hc)
	if err != nil {
		b.Fatal(err)
	}
	hdsPol := measure.Policy{Kind: measure.HDS, SiteGroups: hr.SiteGroups, Halloc: hc}
	return p, opt, haloPol, hdsPol
}

func reportImprovement(b *testing.B, base, opt measure.RunResult) {
	b.Helper()
	b.ReportMetric(measure.Improvement(float64(base.Cache.L1D.Misses), float64(opt.Cache.L1D.Misses)), "L1D_miss_reduction_%")
	b.ReportMetric(measure.Improvement(base.Seconds, opt.Seconds), "speedup_%")
}

// BenchmarkFig9PovrayGroups regenerates Figure 9: grouping the povray test
// workload. The measured work is the full pipeline (profile + group +
// identify + rewrite).
func BenchmarkFig9PovrayGroups(b *testing.B) {
	w := workloads.MustGet("povray")
	p := w.Build(w.TestScale)
	b.ResetTimer()
	var groups int
	for i := 0; i < b.N; i++ {
		opt, err := core.Optimize(p, core.Config{})
		if err != nil {
			b.Fatal(err)
		}
		groups = len(opt.Groups)
	}
	b.ReportMetric(float64(groups), "groups")
}

// BenchmarkFig12AffinitySweep regenerates one point of Figure 12: the
// omnetpp pipeline at the paper's chosen affinity distance (128 bytes).
func BenchmarkFig12AffinitySweep(b *testing.B) {
	w := workloads.MustGet("omnetpp")
	p := w.Build(w.TestScale)
	machine := cache.XeonW2195()
	cfg := core.Config{}
	cfg.Profile.AffinityDistance = 128
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt, err := core.Optimize(p, cfg)
		if err != nil {
			b.Fatal(err)
		}
		pol, err := opt.HALOPolicy(p, halloc.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := measure.Run(p, pol, 1001, machine); err != nil {
			b.Fatal(err)
		}
	}
}

// benchFig13 measures one workload's baseline-vs-HALO miss reduction (the
// Figure 13 quantity) as a benchmark.
func benchFig13(b *testing.B, name string) {
	p, _, haloPol, _ := pipelineFor(b, name)
	machine := cache.XeonW2195()
	b.ResetTimer()
	var base, hal measure.RunResult
	var err error
	for i := 0; i < b.N; i++ {
		base, err = measure.Run(p, measure.Policy{Kind: measure.Jemalloc}, 1001, machine)
		if err != nil {
			b.Fatal(err)
		}
		hal, err = measure.Run(p, haloPol, 1001, machine)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportImprovement(b, base, hal)
}

// BenchmarkFig13MissReduction covers the Figure 13 measurement for a
// representative subset (one prior-work benchmark, one wrapper-heavy
// CPU2017 benchmark, one deep-indirection benchmark).
func BenchmarkFig13MissReduction(b *testing.B) {
	for _, name := range []string{"health", "povray", "xalanc"} {
		b.Run(name, func(b *testing.B) { benchFig13(b, name) })
	}
}

// BenchmarkFig14Speedup measures the Figure 14 quantity (cycle-model
// speedup) for the same subset, contrasting HALO with the HDS replication.
func BenchmarkFig14Speedup(b *testing.B) {
	for _, name := range []string{"health", "povray", "xalanc"} {
		b.Run(name, func(b *testing.B) {
			p, _, haloPol, hdsPol := pipelineFor(b, name)
			machine := cache.XeonW2195()
			b.ResetTimer()
			var base, hal, hd measure.RunResult
			var err error
			for i := 0; i < b.N; i++ {
				if base, err = measure.Run(p, measure.Policy{Kind: measure.Jemalloc}, 1001, machine); err != nil {
					b.Fatal(err)
				}
				if hal, err = measure.Run(p, haloPol, 1001, machine); err != nil {
					b.Fatal(err)
				}
				if hd, err = measure.Run(p, hdsPol, 1001, machine); err != nil {
					b.Fatal(err)
				}
			}
			reportImprovement(b, base, hal)
			b.ReportMetric(measure.Improvement(base.Seconds, hd.Seconds), "hds_speedup_%")
		})
	}
}

// BenchmarkFig15RandomPools measures the Figure 15 control: the random
// 4-pool allocator's effect on a placement-sensitive benchmark.
func BenchmarkFig15RandomPools(b *testing.B) {
	w := workloads.MustGet("health")
	p := w.Build(w.TestScale)
	machine := cache.XeonW2195()
	b.ResetTimer()
	var base, rnd measure.RunResult
	var err error
	for i := 0; i < b.N; i++ {
		if base, err = measure.Run(p, measure.Policy{Kind: measure.Jemalloc}, 1001, machine); err != nil {
			b.Fatal(err)
		}
		if rnd, err = measure.Run(p, measure.Policy{Kind: measure.RandomPools, Pools: 4}, 1001, machine); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(measure.Improvement(base.Seconds, rnd.Seconds), "speedup_%")
}

// BenchmarkTable1Fragmentation measures the Table 1 quantity: grouped-data
// fragmentation at peak usage under HALO's allocator.
func BenchmarkTable1Fragmentation(b *testing.B) {
	for _, name := range []string{"health", "leela"} {
		b.Run(name, func(b *testing.B) {
			p, _, haloPol, _ := pipelineFor(b, name)
			machine := cache.XeonW2195()
			b.ResetTimer()
			var r measure.RunResult
			var err error
			for i := 0; i < b.N; i++ {
				if r, err = measure.Run(p, haloPol, 1001, machine); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.FragPct, "frag_%")
			b.ReportMetric(float64(r.FragBytes), "frag_bytes")
		})
	}
}

// BenchmarkBaselineAllocators measures the §5.1 jemalloc-vs-ptmalloc
// comparison on one benchmark.
func BenchmarkBaselineAllocators(b *testing.B) {
	w := workloads.MustGet("analyzer")
	p := w.Build(w.TestScale)
	machine := cache.XeonW2195()
	b.ResetTimer()
	var je, pt measure.RunResult
	var err error
	for i := 0; i < b.N; i++ {
		if je, err = measure.Run(p, measure.Policy{Kind: measure.Jemalloc}, 1001, machine); err != nil {
			b.Fatal(err)
		}
		if pt, err = measure.Run(p, measure.Policy{Kind: measure.Ptmalloc}, 1001, machine); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(measure.Improvement(float64(pt.Cache.L1D.Misses), float64(je.Cache.L1D.Misses)), "L1D_miss_reduction_%")
}

// BenchmarkRomsStreamExplosion measures the §5.2 representation-size
// comparison: grammar/stream counts versus affinity-graph nodes on roms.
func BenchmarkRomsStreamExplosion(b *testing.B) {
	w := workloads.MustGet("roms")
	p := w.Build(w.TestScale)
	cfg := core.Config{}
	cfg.Profile.RecordTrace = true
	prof, err := core.Profile(p, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var res *hds.Result
	for i := 0; i < b.N; i++ {
		res = hds.Analyze(prof, hds.Config{}, nil)
	}
	b.ReportMetric(float64(res.Candidates), "candidate_streams")
	b.ReportMetric(float64(group.Filter(prof.RawGraph, group.Params{}).NumNodes()), "graph_nodes")
}

// --- pipeline-stage microbenchmarks ------------------------------------

// BenchmarkProfiling measures the Pin-replacement's full-instrumentation
// profiling throughput (the paper reports up to 500x slowdowns for its
// tool; this quantifies ours).
func BenchmarkProfiling(b *testing.B) {
	w := workloads.MustGet("povray")
	p := w.Build(w.TestScale)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Profile(p, core.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// eventRecorder captures a profiling run's complete event stream so a
// benchmark can replay it into consumers without re-interpreting the
// program on every iteration.
type eventRecorder struct {
	events []vm.Event
}

func (r *eventRecorder) ConsumeEvents(batch []vm.Event) {
	r.events = append(r.events, batch...)
}

// recordEventStream executes a workload's test-scale build under the same
// allocator and seed core.Profile uses and returns the raw event stream.
func recordEventStream(b *testing.B, name string) (*isa.Program, []vm.Event) {
	b.Helper()
	w := workloads.MustGet(name)
	p := w.Build(w.TestScale)
	rec := &eventRecorder{}
	m := mem.NewMemory()
	v := vm.New(p, m, alloc.NewSizeSeg(mem.NewOS(m)), rec, vm.Config{Seed: 7})
	if _, err := v.Run(); err != nil {
		b.Fatal(err)
	}
	return p, rec.events
}

// BenchmarkProfileThroughput measures raw events/sec through the full
// profiler sink — shadow stack, object index, affinity queue and graph —
// with the interpreter taken out of the loop. This is the ceiling the
// profiling data plane puts on every training run and halod job. The
// instrumented/bare pair pins the observability overhead: metrics are
// recorded per ~4096-event batch, so the two sub-benchmarks must stay
// within noise of each other (EXPERIMENTS.md records the budget at 2%).
func BenchmarkProfileThroughput(b *testing.B) {
	run := func(b *testing.B, p *isa.Program, events []vm.Event) {
		for i := 0; i < b.N; i++ {
			pr := profile.New(p, profile.Config{})
			for off := 0; off < len(events); off += vm.DefaultBatchSize {
				end := off + vm.DefaultBatchSize
				if end > len(events) {
					end = len(events)
				}
				pr.ConsumeEvents(events[off:end])
			}
			pr.Finish()
		}
		b.StopTimer()
		perSec := float64(b.N) * float64(len(events)) / b.Elapsed().Seconds()
		b.ReportMetric(perSec, "events/sec")
		b.ReportMetric(float64(len(events)), "events/op")
	}
	for _, name := range []string{"povray", "omnetpp"} {
		b.Run(name, func(b *testing.B) {
			p, events := recordEventStream(b, name)
			b.Run("instrumented", func(b *testing.B) {
				obs.SetEnabled(true)
				b.ResetTimer()
				run(b, p, events)
			})
			b.Run("bare", func(b *testing.B) {
				obs.SetEnabled(false)
				defer obs.SetEnabled(true)
				b.ResetTimer()
				run(b, p, events)
			})
		})
	}
}

// BenchmarkSynthesis measures the layout-synthesis stage — grouping,
// selector identification, selector lowering and the hot-data-streams
// policy — over a prerecorded profile, with profiling taken out of the
// loop. This is the wall-clock a `halo opt -profile` / halod job pays on
// top of profile decoding, and the number the halobench -json "synthesis"
// section tracks per workload.
func BenchmarkSynthesis(b *testing.B) {
	for _, name := range []string{"povray", "omnetpp"} {
		b.Run(name, func(b *testing.B) {
			w := workloads.MustGet(name)
			p := w.Build(w.TestScale)
			cfg := core.Config{}
			cfg.Profile.RecordTrace = true
			if w.MaxGroups > 0 {
				cfg.Group.MaxGroups = w.MaxGroups
				cfg.HDS.MaxGroups = w.MaxGroups
			}
			prof, err := core.Profile(p, cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var groups, selectors int
			for i := 0; i < b.N; i++ {
				opt, err := core.OptimizeFromProfile(p, prof, cfg)
				if err != nil {
					b.Fatal(err)
				}
				hr, err := core.AnalyzeHDS(prof, cfg)
				if err != nil {
					b.Fatal(err)
				}
				groups, selectors = len(opt.Groups), len(opt.Selectors.Selectors)
				_ = hr
			}
			b.ReportMetric(float64(groups), "groups")
			b.ReportMetric(float64(selectors), "selectors")
		})
	}
}

// BenchmarkMeasureTrials measures the parallel trial harness end to end:
// four trials of the baseline policy, fanned out over the worker pool
// (ns/op here is the number the halobench -json trajectory tracks per
// workload×technique).
func BenchmarkMeasureTrials(b *testing.B) {
	w := workloads.MustGet("povray")
	p := w.Build(w.TestScale)
	machine := cache.XeonW2195()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := measure.MeasureTrials(p, measure.Policy{Kind: measure.Jemalloc}, 4, 1000, machine); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVMInterpreter measures raw interpretation speed without an
// event sink attached.
func BenchmarkVMInterpreter(b *testing.B) {
	w := workloads.MustGet("art")
	p := w.Build(w.TestScale)
	machine := cache.XeonW2195()
	_ = machine
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := measure.Run(p, measure.Policy{Kind: measure.Jemalloc}, 1, cache.XeonW2195())
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(r.Steps))
	}
}

// BenchmarkRewriter measures the post-link pass over every call site of
// the largest workload binary.
func BenchmarkRewriter(b *testing.B) {
	w := workloads.MustGet("omnetpp")
	p := w.Build(w.TestScale)
	sites := p.CallSites()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rewrite.Instrument(p, sites); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProfileStore measures profile image round-trips and merging,
// the building blocks of the halod service path.
func BenchmarkProfileStore(b *testing.B) {
	w := workloads.MustGet("art")
	p := w.Build(w.TestScale)
	profA, err := core.Profile(p, core.Config{ProfileSeed: 3})
	if err != nil {
		b.Fatal(err)
	}
	profB, err := core.Profile(p, core.Config{ProfileSeed: 5})
	if err != nil {
		b.Fatal(err)
	}
	img, err := profstore.Encode(profA)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(img)))
		for i := 0; i < b.N; i++ {
			if _, err := profstore.Encode(profA); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(img)))
		for i := 0; i < b.N; i++ {
			if _, err := profstore.Decode(img); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("merge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := profstore.Merge(profA, profB); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkServiceOptimize measures the halod request path end to end over
// HTTP: a cold optimize request (the full pipeline runs on a worker)
// versus a repeated identical request served from the content-addressed
// artifact cache. The gap is the service's scaling story: a fleet
// re-requesting a (program, profile, config) triple costs a map lookup,
// not a pipeline run.
func BenchmarkServiceOptimize(b *testing.B) {
	srv := service.New(service.Config{Workers: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	w := workloads.MustGet("art")
	p := w.Build(w.TestScale)
	img, err := p.Encode()
	if err != nil {
		b.Fatal(err)
	}
	var progResp struct {
		ID string `json:"id"`
	}
	benchPost(b, ts.URL+"/v1/programs", img, &progResp)
	prof, err := core.Profile(p, core.Config{ProfileSeed: 3})
	if err != nil {
		b.Fatal(err)
	}
	blob, err := profstore.Encode(prof)
	if err != nil {
		b.Fatal(err)
	}
	var profResp struct {
		ID string `json:"id"`
	}
	benchPost(b, ts.URL+"/v1/profiles", blob, &profResp)

	withProfile, err := json.Marshal(service.OptimizeRequest{
		Program:  progResp.ID,
		Profiles: []string{profResp.ID},
	})
	if err != nil {
		b.Fatal(err)
	}
	// No profile named: the server runs the training workload itself.
	withTraining, err := json.Marshal(service.OptimizeRequest{Program: progResp.ID})
	if err != nil {
		b.Fatal(err)
	}
	optimizeOnce := func(b *testing.B, reqBody []byte) service.JobStatus {
		var st service.JobStatus
		benchPost(b, ts.URL+"/v1/optimize", reqBody, &st)
		resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "?wait=1")
		if err != nil {
			b.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err := json.Unmarshal(data, &st); err != nil {
			b.Fatal(err)
		}
		if st.State != "done" {
			b.Fatalf("job %s: %s (%s)", st.ID, st.State, st.Error)
		}
		return st
	}

	b.Run("cold_pipeline", func(b *testing.B) {
		// Full pipeline per request: profile on a worker, then group,
		// identify, rewrite.
		for i := 0; i < b.N; i++ {
			srv.FlushCache()
			if st := optimizeOnce(b, withTraining); st.Cached {
				b.Fatal("cold request hit the cache")
			}
		}
	})
	b.Run("cold_from_profile", func(b *testing.B) {
		// The uploaded profile replaces the training run; the request
		// still pays for grouping, identification and rewriting.
		for i := 0; i < b.N; i++ {
			srv.FlushCache()
			if st := optimizeOnce(b, withProfile); st.Cached {
				b.Fatal("cold request hit the cache")
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		optimizeOnce(b, withProfile) // warm the artifact cache
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if st := optimizeOnce(b, withProfile); !st.Cached {
				b.Fatal("cached request missed")
			}
		}
	})
}

func benchPost(b *testing.B, url string, body []byte, out any) {
	b.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode >= 300 {
		b.Fatalf("POST %s: %d %s", url, resp.StatusCode, data)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeDecode measures binary image round-trips.
func BenchmarkEncodeDecode(b *testing.B) {
	w := workloads.MustGet("xalanc")
	p := w.Build(w.TestScale)
	img, err := p.Encode()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(img)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := isa.Decode(img); err != nil {
			b.Fatal(err)
		}
	}
}
