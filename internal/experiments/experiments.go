// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) over the simulated substrate:
//
//	fig9     — allocation groups for the povray test workload
//	fig12    — omnetpp execution time across affinity distances 2^3..2^17
//	fig13    — L1D miss reduction, HALO vs hot-data-streams, 11 benchmarks
//	fig14    — speedup, HALO vs hot-data-streams, 11 benchmarks
//	fig15    — random 4-pool allocator speedup (placement sensitivity)
//	tab1     — fragmentation of grouped data at peak usage
//	baseline — jemalloc-like vs ptmalloc-like L1D misses (§5.1)
//	roms     — affinity-graph nodes vs hot-data-stream counts (§5.2)
//
// Beyond the paper, the "adversarial" experiment evaluates the
// hostile-heap workload family (internal/adversary): where grouping
// helps, hurts (negative miss reduction), or is defeated, with a
// shadow-heap corruption verdict per scenario.
//
// Absolute numbers come from the cycle model and the cache simulator, not
// the paper's Xeon, so the reproduction target is the *shape* of each
// result: who wins, roughly by how much, and where each technique fails.
package experiments

import (
	"cmp"
	"crypto/sha256"
	"fmt"
	"io"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"halo/internal/cache"
	"halo/internal/core"
	"halo/internal/hds"
	"halo/internal/isa"
	"halo/internal/measure"
	"halo/internal/obs"
	"halo/internal/pool"
	"halo/internal/profile"
	"halo/internal/workloads"
)

// Options configures a harness run.
type Options struct {
	// Trials per configuration, every one of them reported. The paper
	// records 10; the default here is 5 to keep a full suite run fast.
	Trials int
	// Quick reduces trials to 2 and measures at test scale.
	Quick bool
	// Log receives progress lines; nil discards them.
	Log io.Writer
	// Workloads restricts the benchmark set (nil = all).
	Workloads []string
	// Seed bases the measurement seeds. Profiling always uses its own
	// fixed training seed, distinct from measurement.
	Seed uint64
}

func (o Options) withDefaults() Options {
	if o.Trials == 0 {
		o.Trials = 5
	}
	if o.Quick && o.Trials > 2 {
		o.Trials = 2
	}
	if o.Seed == 0 {
		o.Seed = 1000
	}
	return o
}

func (o Options) logf(format string, args ...any) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, format+"\n", args...)
	}
}

// Table is a rendered experiment result.
type Table struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// artefacts holds everything derived for one benchmark: the test-input
// profile and pipelines, the ref binary, and the measurement policies by
// row label.
type artefacts struct {
	w      workloads.Workload
	opt    *core.Optimized
	hds    *hds.Result
	stages []obs.Span // per-stage spans of the pipeline run

	refProg *isa.Program
	pols    map[string]measure.Policy
}

// Engine caches per-workload artefacts and measurement summaries so the
// experiments share one profiling run per benchmark and one trial set per
// distinct layout.
// Experiments fan their workloads out over a bounded worker pool; the
// caches are mutex-guarded and every table row is assembled in workload
// order after the pool drains, so output is identical at any parallelism.
type Engine struct {
	opts    Options
	machine cache.Config

	mu       sync.Mutex
	arts     map[string]*artefacts
	sums     map[string]*measured // by layoutKey
	rows     map[string]string    // "workload/label" → the layoutKey it measured
	training []ProfileStat        // one per training run made
}

// measured is one trial set: the trials' summary and the wall time of the
// MeasureTrials call that produced it. done closes once the fields are
// set; until then the entry marks a measurement in flight, which a second
// caller waits for instead of repeating.
type measured struct {
	done chan struct{}
	measure.Summary
	trialNs int64
	err     error
}

// NewEngine builds an experiment engine.
func NewEngine(opts Options) *Engine {
	return &Engine{
		opts:    opts.withDefaults(),
		machine: cache.XeonW2195(),
		arts:    map[string]*artefacts{},
		sums:    map[string]*measured{},
		rows:    map[string]string{},
	}
}

// Trials is the number of trials the engine measures per trial set:
// Options.Trials after defaults, so at most 2 under Quick.
func (e *Engine) Trials() int { return e.opts.Trials }

func (e *Engine) workloadList() []workloads.Workload {
	if len(e.opts.Workloads) == 0 {
		// The paper-figure experiments run the canonical benchmarks only;
		// the hostile-heap family has its own experiment ("adversarial").
		var out []workloads.Workload
		for _, w := range workloads.All() {
			if !w.Adversarial {
				out = append(out, w)
			}
		}
		return out
	}
	var out []workloads.Workload
	for _, name := range e.opts.Workloads {
		out = append(out, workloads.MustGet(name))
	}
	return out
}

// adversarialList selects the hostile-heap workloads, honouring an
// explicit -workloads restriction.
func (e *Engine) adversarialList() []workloads.Workload {
	var out []workloads.Workload
	for _, w := range workloads.All() {
		if w.Adversarial && (len(e.opts.Workloads) == 0 || slices.Contains(e.opts.Workloads, w.Name)) {
			out = append(out, w)
		}
	}
	return out
}

func (e *Engine) refScale(w workloads.Workload) int {
	if e.opts.Quick {
		return w.TestScale
	}
	return w.RefScale
}

// pipelineConfig applies the artifact appendix's per-benchmark flags.
func pipelineConfig(w workloads.Workload) core.Config {
	cfg := core.Config{}
	cfg.Profile.RecordTrace = true
	if w.MaxGroups > 0 {
		cfg.Group.MaxGroups = w.MaxGroups
		cfg.HDS.MaxGroups = w.MaxGroups
	}
	return cfg
}

// artefactsFor profiles a workload on its test input and derives every
// measurement policy for the ref input (§5.1's methodology: profile on
// test, measure on ref; the builds share call-site addresses).
func (e *Engine) artefactsFor(w workloads.Workload) (*artefacts, error) {
	e.mu.Lock()
	a, ok := e.arts[w.Name]
	e.mu.Unlock()
	if ok {
		return a, nil
	}
	e.opts.logf("[%s] profiling test input (scale %d)", w.Name, w.TestScale)
	cfg := pipelineConfig(w)
	tr := obs.NewTrace()
	cfg.Trace = tr
	testProg := w.Build(w.TestScale)
	prof, err := core.Profile(testProg, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	opt, err := core.OptimizeFromProfile(testProg, prof, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	hr, err := core.AnalyzeHDS(opt.Profile, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s hds: %w", w.Name, err)
	}
	e.opts.logf("[%s] %d graph nodes, %d groups, %d sites; hds: %d rules, %d hot streams, %d sets",
		w.Name, opt.Graph.NumNodes(), len(opt.Groups), len(opt.Selectors.Sites),
		hr.Rules, hr.Streams, len(hr.Sets))

	// The ref binary is rewritten at the sites chosen on the test profile;
	// test and ref builds share call-site addresses, so the profile
	// transfers — the §5.1 methodology.
	refProg := w.Build(e.refScale(w))
	hc := w.HallocConfig()
	polHALO, err := opt.HALOPolicy(refProg, hc)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}

	a = &artefacts{
		w:       w,
		opt:     opt,
		hds:     hr,
		stages:  tr.Spans(),
		refProg: refProg,
		pols: map[string]measure.Policy{
			"jemalloc": {Kind: measure.Jemalloc},
			"ptmalloc": {Kind: measure.Ptmalloc},
			"halo":     polHALO,
			"hds":      {Kind: measure.HDS, SiteGroups: hr.SiteGroups, Halloc: hc},
			"random":   {Kind: measure.RandomPools, Pools: 4, Halloc: hc},
		},
	}
	e.mu.Lock()
	e.training = append(e.training, profileStat(w.Name, profile.DefaultAffinityDistance, prof, a.stages))
	if prior, ok := e.arts[w.Name]; ok {
		a = prior // another worker built it first; keep one canonical copy
	} else {
		e.arts[w.Name] = a
	}
	e.mu.Unlock()
	return a, nil
}

// summaryFor measures (with caching) one workload under one policy, the
// only place the experiments run trials, and records how long the trials
// took. The label names the result row; the cache is keyed by the
// layout, so rows whose policies give the same layout share one trial
// set, and a caller that finds that trial set in flight waits for it.
func (e *Engine) summaryFor(a *artefacts, label string, pol measure.Policy) (measure.Summary, error) {
	key, err := layoutKey(a.w.Name, pol)
	if err != nil {
		return measure.Summary{}, fmt.Errorf("%s/%s: %w", a.w.Name, label, err)
	}
	e.mu.Lock()
	e.rows[a.w.Name+"/"+label] = key
	m, ok := e.sums[key]
	if !ok {
		m = &measured{done: make(chan struct{})}
		e.sums[key] = m
	}
	e.mu.Unlock()
	if ok {
		<-m.done
		return m.Summary, m.err
	}
	e.opts.logf("[%s] measuring %s (%d trials)", a.w.Name, label, e.opts.Trials)
	start := time.Now()
	m.Summary, m.err = measure.MeasureTrials(a.refProg, pol, e.opts.Trials, e.opts.Seed, e.machine)
	m.trialNs = time.Since(start).Nanoseconds()
	if m.err != nil {
		m.err = fmt.Errorf("%s/%s: %w", a.w.Name, label, m.err)
	}
	close(m.done)
	return m.Summary, m.err
}

// summaries measures the workload under each labelled policy of a, in
// order.
func (e *Engine) summaries(a *artefacts, labels ...string) ([]measure.Summary, error) {
	out := make([]measure.Summary, len(labels))
	for i, label := range labels {
		var err error
		if out[i], err = e.summaryFor(a, label, a.pols[label]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// layoutKey fingerprints what a measurement of the workload under pol
// depends on besides the engine's trials, seed and machine: the workload
// (it fixes the measured build), the policy kind, the rewritten binary's
// encoding, the selectors and group-state width, the HDS site map, the
// pool count and the group allocator's config.
func layoutKey(workload string, pol measure.Policy) (string, error) {
	h := sha256.New()
	fmt.Fprintf(h, "%q %d %d %d %+v %v\n", workload, pol.Kind, pol.NumBits, pol.Pools, pol.Halloc, pol.Selectors)
	for _, site := range slices.Sorted(maps.Keys(pol.SiteGroups)) {
		fmt.Fprintf(h, "%d:%d ", site, pol.SiteGroups[site])
	}
	if pol.Rewritten != nil {
		img, err := pol.Rewritten.Encode()
		if err != nil {
			return "", err
		}
		h.Write(img)
	}
	return string(h.Sum(nil)), nil
}

// sharedWith names the row whose trial set the workload's row label
// reuses, or returns "" when label is that row itself. Of the rows that
// measured one layout, the shortest label owns it, ties going to the
// lesser string, so fig12's "halo@A=8" sorts before "halo@A=16" and the
// engine's own "halo" before either. Call with e.mu held.
func (e *Engine) sharedWith(workload, label string) string {
	key := e.rows[workload+"/"+label]
	owner := label
	for row, k := range e.rows {
		name, other, _ := strings.Cut(row, "/")
		if k == key && name == workload && (len(other) < len(owner) || len(other) == len(owner) && other < owner) {
			owner = other
		}
	}
	if owner == label {
		return ""
	}
	return owner
}

// perWorkload builds one table row per workload, the workload's name
// followed by the cells row returns for its artefacts. The workloads fan
// out over the shared worker pool, and the trials each one measures run
// inline or on whatever helpers the pool has left; every row lands in its
// workload's slot, so the rows come back in list order at any timing.
func (e *Engine) perWorkload(list []workloads.Workload, row func(a *artefacts) ([]string, error)) ([][]string, error) {
	rows := make([][]string, len(list))
	err := pool.Map(len(list), 0, func(i int) error {
		a, err := e.artefactsFor(list[i])
		if err != nil {
			return err
		}
		cells, err := row(a)
		if err != nil {
			return err
		}
		rows[i] = append([]string{a.w.Name}, cells...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// BenchResult is one machine-readable measurement: a workload under a
// technique, compared against the jemalloc baseline measured in the same
// sweep. TrialNs is the wall time of the row's own trial set while the
// rest of the sweep shares the machine, so it is this row's share of the
// sweep's trial time, not an idle-machine figure. A row whose layout
// another row of the workload measured names that row in
// SharesLayoutWith, carries its figures, and has TrialNs 0: it cost no
// trials of its own. Fig12's affinity-distance points appear as technique
// "halo@A=<bytes>".
type BenchResult struct {
	Workload         string  `json:"workload"`
	Technique        string  `json:"technique"`
	MissReductionPct float64 `json:"miss_reduction_pct"`
	SpeedupPct       float64 `json:"speedup_pct"`
	BaselineSeconds  float64 `json:"baseline_seconds"`
	Seconds          float64 `json:"seconds"`
	TrialNs          int64   `json:"trial_ns"`
	SharesLayoutWith string  `json:"shares_layout_with,omitempty"`
	// Regressed flags results where the technique *hurt* (see regressed).
	// Easy to misread as noise in a wall of numbers, so it is surfaced
	// explicitly here and in halobench's rendered tables.
	Regressed bool `json:"regressed"`
}

// regressed is the one verdict every report gives a technique against its
// baseline, from the trials' medians: it hurt when it added L1D misses or
// made the run slower. A layout that saves misses but loses cycles (to
// DTLB misses, say) is no win, so neither figure may excuse the other.
func regressed(missReductionPct, speedupPct float64) bool {
	return missReductionPct < 0 || speedupPct < 0
}

// BenchResults renders every measured workload×technique pair from the
// engine's summary cache against its jemalloc baseline, sorted by workload
// then technique. Call after Run; only combinations the executed
// experiments actually measured appear. A row whose baseline the sweep did
// not measure (tab1 alone, say) keeps its trial set and leaves the
// baseline-relative fields zero.
func (e *Engine) BenchResults() []BenchResult {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []BenchResult
	for _, k := range slices.Sorted(maps.Keys(e.rows)) {
		name, label, _ := strings.Cut(k, "/")
		if label == "jemalloc" {
			continue
		}
		s, ok := e.finished(k)
		if !ok {
			continue
		}
		r := BenchResult{
			Workload:         name,
			Technique:        label,
			Seconds:          s.Seconds.Median,
			TrialNs:          s.trialNs,
			SharesLayoutWith: e.sharedWith(name, label),
		}
		if r.SharesLayoutWith != "" {
			r.TrialNs = 0
		}
		if base, ok := e.finished(name + "/jemalloc"); ok {
			r.MissReductionPct = measure.Improvement(base.L1DMiss.Median, s.L1DMiss.Median)
			r.SpeedupPct = measure.Improvement(base.Seconds.Median, s.Seconds.Median)
			r.BaselineSeconds = base.Seconds.Median
			r.Regressed = regressed(r.MissReductionPct, r.SpeedupPct)
		}
		out = append(out, r)
	}
	return out
}

// finished returns the trial set a "workload/label" row measured, if that
// row exists and its measurement completed without error. Call with e.mu
// held.
func (e *Engine) finished(row string) (*measured, bool) {
	key, ok := e.rows[row]
	if !ok {
		return nil, false
	}
	m := e.sums[key]
	select {
	case <-m.done:
		return m, m.err == nil
	default:
		return nil, false
	}
}

// ProfileStat is one training run's profiling throughput: how many VM
// events its profiler consumed and the wall-clock of its "profile" span,
// the events/sec trajectory the data-plane work is tracked by.
// AffinityDistance is the run's A in bytes: the default for the run
// behind a workload's artefacts, another for each of fig12's re-profiles.
type ProfileStat struct {
	Workload         string  `json:"workload"`
	AffinityDistance uint64  `json:"affinity_distance"`
	Events           uint64  `json:"events"`
	WallNs           int64   `json:"wall_ns"`
	EventsPerSec     float64 `json:"events_per_sec"`
}

// profileStat is the row of one training run: its profile and the spans
// of the pipeline run that made it.
func profileStat(workload string, dist uint64, prof *profile.Profile, spans []obs.Span) ProfileStat {
	s := ProfileStat{Workload: workload, AffinityDistance: dist, Events: prof.Events}
	for _, sp := range spans {
		if sp.Name == "profile" {
			s.WallNs += sp.DurNs
		}
	}
	if s.WallNs > 0 {
		s.EventsPerSec = float64(s.Events) / (float64(s.WallNs) / 1e9)
	}
	return s
}

// ProfileStats reports every training run the executed experiments made,
// sorted by workload, then affinity distance. Call after Run.
func (e *Engine) ProfileStats() []ProfileStat {
	e.mu.Lock()
	defer e.mu.Unlock()
	return slices.SortedStableFunc(slices.Values(e.training), func(x, y ProfileStat) int {
		return cmp.Or(strings.Compare(x.Workload, y.Workload), cmp.Compare(x.AffinityDistance, y.AffinityDistance))
	})
}

// SynthStat is one workload's layout-synthesis cost: the summed stage
// spans of turning its training profile into groups, selectors and the
// HDS co-allocation policy. This is the per-job cost a halod worker pays
// on top of profiling (or profile decoding), and the trajectory the
// synthesis pipeline is tracked by. HDSNs sums hds.Analyze's stage spans;
// no setup precedes the first, since the analysis reads the profiler's
// per-serial table as its object table.
type SynthStat struct {
	Workload   string `json:"workload"`
	Groups     int    `json:"groups"`
	Selectors  int    `json:"selectors"`
	Sites      int    `json:"sites"`
	HDSSets    int    `json:"hds_sets"`
	OptimizeNs int64  `json:"optimize_ns"` // group + identify + rewrite + lower
	HDSNs      int64  `json:"hds_ns"`      // grammar + streams + set packing
	WallNs     int64  `json:"wall_ns"`     // sum: the full synthesis stage
}

// SynthesisStats reports synthesis cost for every workload the executed
// experiments derived artefacts for, sorted by workload. Call after Run.
func (e *Engine) SynthesisStats() []SynthStat {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]SynthStat, 0, len(e.arts))
	for _, a := range e.arts {
		optNs, hdsNs := a.synthNs()
		out = append(out, SynthStat{
			Workload:   a.w.Name,
			Groups:     len(a.opt.Groups),
			Selectors:  len(a.opt.Selectors.Selectors),
			Sites:      len(a.opt.Selectors.Sites),
			HDSSets:    len(a.hds.Sets),
			OptimizeNs: optNs,
			HDSNs:      hdsNs,
			WallNs:     optNs + hdsNs,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Workload < out[j].Workload })
	return out
}

// synthNs adds a's synthesis spans up into HALO's stages (group,
// identify, rewrite, lower) and the HDS analysis stages ("hds/..."),
// leaving out the training run ("profile").
func (a *artefacts) synthNs() (optNs, hdsNs int64) {
	for _, s := range a.stages {
		switch {
		case s.Name == "profile":
		case strings.HasPrefix(s.Name, "hds/"):
			hdsNs += s.DurNs
		default:
			optNs += s.DurNs
		}
	}
	return optNs, hdsNs
}

// WorkloadStages is one workload's per-stage span list: the same spans a
// halod job report carries, recorded for the harness's local pipeline run.
type WorkloadStages struct {
	Workload string     `json:"workload"`
	Stages   []obs.Span `json:"stages"`
}

// StageStats reports per-stage pipeline timings for every workload the
// executed experiments derived artefacts for, sorted by workload. Call
// after Run.
func (e *Engine) StageStats() []WorkloadStages {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]WorkloadStages, 0, len(e.arts))
	for _, a := range e.arts {
		out = append(out, WorkloadStages{Workload: a.w.Name, Stages: a.stages})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Workload < out[j].Workload })
	return out
}

// Run executes the named experiments ("all" for everything) in order.
func (e *Engine) Run(ids []string) ([]*Table, error) {
	known := []string{"fig9", "fig12", "fig13", "fig14", "fig15", "tab1", "baseline", "roms", "adversarial"}
	if len(ids) == 1 && ids[0] == "all" {
		ids = known
	}
	var out []*Table
	for _, id := range ids {
		var (
			t   *Table
			err error
		)
		switch id {
		case "fig9":
			t, err = e.Fig9()
		case "fig12":
			t, err = e.Fig12()
		case "fig13":
			t, err = e.Fig13()
		case "fig14":
			t, err = e.Fig14()
		case "fig15":
			t, err = e.Fig15()
		case "tab1":
			t, err = e.Table1()
		case "baseline":
			t, err = e.Baseline()
		case "roms":
			t, err = e.RomsStreams()
		case "adversarial":
			t, err = e.Adversarial()
		default:
			err = fmt.Errorf("unknown experiment %q (known: %s, all)", id, strings.Join(known, ", "))
		}
		if err != nil {
			return out, err
		}
		out = append(out, t)
	}
	return out, nil
}
