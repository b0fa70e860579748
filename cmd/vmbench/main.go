// Command vmbench measures interpreter dispatch throughput: each golden
// workload's test-scale build is executed by both the reference switch
// interpreter and the predecoded threaded dispatcher, and the best-of-reps
// steps/sec and events/sec are reported. It backs the CI dispatch
// regression guard: with -baseline it compares the fresh numbers against a
// committed BENCH_vm.json and fails when any workload's threaded-engine
// events/sec drops by more than -tol percent.
//
// -cpuprofile and -memprofile write pprof CPU and allocation profiles of
// the whole run.
//
// Usage:
//
//	vmbench [-reps N] [-workloads a,b] [-out BENCH_vm.json]
//	        [-baseline BENCH_vm.json] [-tol 20]
//	        [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"halo/internal/mem"
	"halo/internal/obs"
	"halo/internal/vm"
	"halo/internal/workloads"
)

// Result is one workload × engine throughput record. TLB figures are
// threaded-engine properties; they stay zero for the switch engine, which
// has no software TLB.
type Result struct {
	Workload     string  `json:"workload"`
	Engine       string  `json:"engine"`
	Steps        uint64  `json:"steps"`
	Events       uint64  `json:"events"`
	TLBHitRate   float64 `json:"tlb_hit_rate"`  // hits / (loads+stores)
	TLBMissRate  float64 `json:"tlb_miss_rate"` // misses / (loads+stores)
	NsPerRun     int64   `json:"ns_per_run"`
	StepsPerSec  float64 `json:"steps_per_sec"`
	EventsPerSec float64 `json:"events_per_sec"`
}

// Doc is the BENCH_vm.json document.
type Doc struct {
	Reps    int      `json:"reps"`
	Results []Result `json:"results"`
}

// countSink counts events without retaining them.
type countSink struct{ n uint64 }

func (s *countSink) ConsumeEvents(batch []vm.Event) { s.n += uint64(len(batch)) }

// bumpAlloc is the minimal allocator the benchmark runs under: dispatch
// throughput must not depend on allocator policy.
type bumpAlloc struct {
	next  uint64
	sizes map[uint64]uint64
	m     *mem.Memory
}

func newBump(m *mem.Memory) *bumpAlloc {
	return &bumpAlloc{next: mem.HeapBase, sizes: map[uint64]uint64{}, m: m}
}

func (b *bumpAlloc) Malloc(size uint64) uint64 {
	p := b.next
	b.next += (size + 15) &^ 15
	b.sizes[p] = size
	return p
}
func (b *bumpAlloc) Calloc(n, size uint64) uint64 { return b.Malloc(n * size) }
func (b *bumpAlloc) Realloc(p, size uint64) uint64 {
	np := b.Malloc(size)
	if old := b.sizes[p]; old > 0 {
		n := old
		if size < n {
			n = size
		}
		b.m.Copy(np, p, n)
	}
	return np
}
func (b *bumpAlloc) Free(p uint64) {}

// measure runs the workload once and reports retired steps, events and
// wall-clock.
func measure(name string, mode vm.DispatchMode) (Result, error) {
	w := workloads.MustGet(name)
	p := w.Build(w.TestScale)
	vm.Predecode(p) // decode outside the timed region, as real runs do
	m := mem.NewMemory()
	sink := &countSink{}
	v := vm.New(p, m, newBump(m), sink, vm.Config{Seed: 1000, Dispatch: mode})
	start := time.Now()
	if _, err := v.Run(); err != nil {
		return Result{}, fmt.Errorf("%s: %w", name, err)
	}
	ns := time.Since(start).Nanoseconds()
	sec := float64(ns) / 1e9
	engine := "threaded"
	if mode == vm.DispatchSwitch {
		engine = "switch"
	}
	res := Result{
		Workload:     name,
		Engine:       engine,
		Steps:        v.Steps(),
		Events:       sink.n,
		NsPerRun:     ns,
		StepsPerSec:  float64(v.Steps()) / sec,
		EventsPerSec: float64(sink.n) / sec,
	}
	if mode == vm.DispatchThreaded {
		if acc := v.Loads() + v.Stores(); acc > 0 {
			miss := v.TLBMisses()
			hits := acc - miss - v.TLBBypasses()
			res.TLBHitRate = float64(hits) / float64(acc)
			res.TLBMissRate = float64(miss) / float64(acc)
		}
	}
	return res, nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "vmbench: %v\n", err)
		os.Exit(1)
	}
}

// run is the whole command; the profiles it was asked for are written on
// every return path.
func run(args []string) (err error) {
	fs := flag.NewFlagSet("vmbench", flag.ExitOnError)
	var (
		reps       = fs.Int("reps", 5, "repetitions per configuration (best-of wins)")
		names      = fs.String("workloads", "povray,omnetpp", "comma-separated workloads")
		out        = fs.String("out", "", "write results as JSON to this file")
		baseline   = fs.String("baseline", "", "compare against a committed BENCH_vm.json")
		tol        = fs.Float64("tol", 20, "max allowed threaded events/sec regression, percent")
		cpuprofile = fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memprofile = fs.String("memprofile", "", "write a pprof allocation profile of the run to this file")
	)
	fs.Parse(args)
	stop, err := obs.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stop()) }()

	doc := Doc{Reps: *reps}
	for _, name := range strings.Split(*names, ",") {
		for _, mode := range []vm.DispatchMode{vm.DispatchSwitch, vm.DispatchThreaded} {
			var best Result
			for i := 0; i < *reps; i++ {
				r, err := measure(name, mode)
				if err != nil {
					return err
				}
				if r.EventsPerSec > best.EventsPerSec {
					best = r
				}
			}
			doc.Results = append(doc.Results, best)
			fmt.Printf("%-10s %-9s %12d steps  tlb %5.1f%%  %8.2fms  %11.0f steps/s  %11.0f events/s\n",
				best.Workload, best.Engine, best.Steps, best.TLBHitRate*100,
				float64(best.NsPerRun)/1e6, best.StepsPerSec, best.EventsPerSec)
		}
	}

	if *out != "" {
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
	}

	if *baseline != "" && checkBaseline(doc, *baseline, *tol) {
		return errors.New("threaded engine regressed against the baseline")
	}
	return nil
}

// checkBaseline compares threaded-engine events/sec and steps/sec against
// the committed baseline and reports whether any workload regressed beyond
// tol percent on either axis.
func checkBaseline(doc Doc, path string, tol float64) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vmbench: baseline: %v\n", err)
		return true
	}
	var base Doc
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "vmbench: baseline: %v\n", err)
		return true
	}
	want := map[string]Result{}
	for _, r := range base.Results {
		if r.Engine == "threaded" {
			want[r.Workload] = r
		}
	}
	failed := false
	check := func(workload, metric string, baseline, got float64) {
		if baseline == 0 {
			return
		}
		drop := (baseline - got) / baseline * 100
		if drop > tol {
			fmt.Fprintf(os.Stderr, "vmbench: %s threaded %s regressed %.1f%% (%.0f -> %.0f, tol %.0f%%)\n",
				workload, metric, drop, baseline, got, tol)
			failed = true
		} else {
			fmt.Printf("%s: threaded %s within tolerance (%+.1f%% vs baseline)\n",
				workload, metric, -drop)
		}
	}
	for _, r := range doc.Results {
		if r.Engine != "threaded" {
			continue
		}
		b, ok := want[r.Workload]
		if !ok {
			continue
		}
		check(r.Workload, "events/s", b.EventsPerSec, r.EventsPerSec)
		check(r.Workload, "steps/s", b.StepsPerSec, r.StepsPerSec)
	}
	return failed
}
