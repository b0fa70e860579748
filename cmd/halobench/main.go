// Command halobench regenerates the paper's evaluation tables and figures
// (§5) over the simulated substrate, printing aligned text tables and
// optionally writing machine-readable JSON, in the spirit of the
// artifact's `halo baseline` / `halo run` / `halo plot` workflow.
//
// Usage:
//
//	halobench [-run all|fig9,fig12,fig13,fig14,fig15,tab1,baseline,roms,adversarial]
//	          [-trials N] [-quick] [-workloads a,b,c] [-json out.json] [-v]
//	          [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// -cpuprofile and -memprofile write pprof CPU and allocation profiles of
// the whole sweep.
//
// Workloads, trials and fig12's affinity distances fan out over the
// process-wide pool of internal/pool, which GOMAXPROCS alone sizes; the
// tables are identical at any setting, only wall-clock time changes.
//
// The "adversarial" experiment runs the hostile-heap workload family (the
// internal/adversary search engine's discovered sequences) through the
// full pipeline and reports where grouping helps, hurts (REGRESSED) or is
// defeated, plus a shadow-heap corruption verdict per workload.
//
// The -json document carries the rendered tables plus one flat result
// record per measured workload×technique pair (miss reduction, speedup,
// simulated seconds, trial_ns — the wall-clock of that pair's own trial
// set, warm-up run included, while the sweep runs — and a regressed flag
// set when the technique added misses or slowed the run against its
// baseline; fig12's distances appear as technique "halo@A=<bytes>"),
// per-workload profiling throughput (events consumed by the training
// run's profiler and events/sec over its "profile" span), a per-workload
// "synthesis" section (the summed stage spans of turning the training
// profile into groups, selectors and the HDS policy), a "metrics" section
// (a snapshot of the process metrics registry plus per-workload pipeline
// stage spans), and the sweep's wall-clock — the format the repository's
// BENCH_*.json trajectory records. Every distinct layout is measured
// once: a row that shares its layout with another row of its workload
// names that row in shares_layout_with and has trial_ns 0, so the
// trial_ns figures add up to the sweep's trial time.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"halo/internal/experiments"
	"halo/internal/obs"
)

// jsonMetrics is the observability section of the -json document: the
// Default registry's snapshot (VM, pool and profiler substrate counters)
// and the per-workload pipeline stage spans.
type jsonMetrics struct {
	Global map[string]float64           `json:"global"`
	Stages []experiments.WorkloadStages `json:"stages"`
}

// jsonDoc is the -json output document.
type jsonDoc struct {
	Trials    int                       `json:"trials"`
	Quick     bool                      `json:"quick"`
	Seed      uint64                    `json:"seed"`
	Workloads []string                  `json:"workloads,omitempty"`
	Results   []experiments.BenchResult `json:"results"`
	Profiling []experiments.ProfileStat `json:"profiling"`
	Synthesis []experiments.SynthStat   `json:"synthesis"`
	Metrics   jsonMetrics               `json:"metrics"`
	Tables    []*experiments.Table      `json:"tables"`
	WallNs    int64                     `json:"wall_ns"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "halobench: %v\n", err)
		os.Exit(1)
	}
}

// run is the whole command; the profiles it was asked for are written on
// every return path.
func run() (err error) {
	var (
		runIDs     = flag.String("run", "all", "comma-separated experiment ids (fig9, fig12, fig13, fig14, fig15, tab1, baseline, roms, adversarial) or 'all'")
		trials     = flag.Int("trials", 5, "measured trials per configuration (paper: 10)")
		quick      = flag.Bool("quick", false, "reduced trials and test-scale inputs")
		workloads  = flag.String("workloads", "", "restrict to a comma-separated workload subset")
		jsonOut    = flag.String("json", "", "also write machine-readable results as JSON to this file")
		verbose    = flag.Bool("v", false, "log progress to stderr")
		seed       = flag.Uint64("seed", 0, "measurement seed base (0 = default)")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile of the sweep to this file")
		memprofile = flag.String("memprofile", "", "write a pprof allocation profile of the sweep to this file")
	)
	flag.Parse()
	stop, err := obs.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stop()) }()

	var logw io.Writer
	if *verbose {
		logw = os.Stderr
	}
	opts := experiments.Options{
		Trials: *trials,
		Quick:  *quick,
		Log:    logw,
		Seed:   *seed,
	}
	if *workloads != "" {
		opts.Workloads = strings.Split(*workloads, ",")
	}

	engine := experiments.NewEngine(opts)
	ids := strings.Split(*runIDs, ",")
	start := time.Now()
	tables, err := engine.Run(ids)
	wall := time.Since(start)
	for _, t := range tables {
		fmt.Println(t.Render())
	}
	if err != nil {
		return err
	}
	if *jsonOut != "" {
		doc := jsonDoc{
			Trials:    opts.Trials,
			Quick:     *quick,
			Seed:      *seed,
			Workloads: opts.Workloads,
			Results:   engine.BenchResults(),
			Profiling: engine.ProfileStats(),
			Synthesis: engine.SynthesisStats(),
			Metrics: jsonMetrics{
				Global: obs.Default.Snapshot(),
				Stages: engine.StageStats(),
			},
			Tables: tables,
			WallNs: wall.Nanoseconds(),
		}
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonOut)
	}
	return nil
}
