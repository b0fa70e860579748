package experiments

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"halo/internal/measure"
	"halo/internal/obs"
	"halo/internal/pool"
	"halo/internal/workloads"
)

func quickEngine(workloads ...string) *Engine {
	return NewEngine(Options{Quick: true, Trials: 2, Workloads: workloads})
}

// TestQuickTrials: -quick caps the default five trials at two, and the
// engine reports the count it runs.
func TestQuickTrials(t *testing.T) {
	if got := NewEngine(Options{Quick: true}).Trials(); got != 2 {
		t.Fatalf("quick engine runs %d trials, want 2", got)
	}
	if got := NewEngine(Options{}).Trials(); got != 5 {
		t.Fatalf("default engine runs %d trials, want 5", got)
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{
		ID:      "x",
		Title:   "demo",
		Columns: []string{"a", "bb"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
		Notes:   []string{"n"},
	}
	out := tab.Render()
	for _, want := range []string{"demo", "333", "note: n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestFig9Quick(t *testing.T) {
	tab, err := quickEngine().Fig9()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("no groups in fig9")
	}
	// Figure 9's semantic content: the create/copy contexts appear.
	joined := tab.Render()
	for _, want := range []string{"create_plane", "create_csg", "pov_malloc"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("fig9 missing %q", want)
		}
	}
}

func TestFig13And14ShareMeasurements(t *testing.T) {
	e := quickEngine("art")
	if _, err := e.Fig13(); err != nil {
		t.Fatal(err)
	}
	sums := len(e.sums)
	if _, err := e.Fig14(); err != nil {
		t.Fatal(err)
	}
	if len(e.sums) != sums {
		t.Fatal("fig14 re-measured despite the cache")
	}
}

// vmRuns reads the process-wide count of VM runs.
func vmRuns() float64 { return obs.Default.Snapshot()["halo_vm_runs_total"] }

// TestFig13VMRuns: fig13 on one workload performs one training run and one
// trial set of exactly the reported trials per policy, and nothing more.
func TestFig13VMRuns(t *testing.T) {
	e := quickEngine("art")
	before := vmRuns()
	if _, err := e.Fig13(); err != nil {
		t.Fatal(err)
	}
	// jemalloc, HALO and HDS.
	if got, want := vmRuns()-before, float64(1+3*e.Trials()); got != want {
		t.Fatalf("fig13 on art made %v VM runs, want %v", got, want)
	}
}

// TestFig12Quick: the quick affinity-distance sweep covers 8 B to 2 KiB,
// takes its baseline and its 128 B point (the profiler's default distance)
// from the measurements fig14 already made, re-profiles each other
// distance once, and measures only layouts no other row measured. Under
// -quick every distance yields the 128 B point's layout, so after fig14
// the sweep makes just the eight training runs, and every other row names
// 128 as its layout and repeats its figures. The graph columns say why:
// the filtered graph gains edges up to 32 B and none after, and synthesis
// forms the same four groups at every distance.
func TestFig12Quick(t *testing.T) {
	e := quickEngine("omnetpp")
	fig14, err := e.Fig14()
	if err != nil {
		t.Fatal(err)
	}
	before := vmRuns()
	tab, err := e.Fig12()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := vmRuns()-before, float64(8); got != want {
		t.Errorf("fig12 after fig14 made %v VM runs, want %v", got, want)
	}
	if len(tab.Rows) != 9 {
		t.Fatalf("fig12 has %d rows, want 9", len(tab.Rows))
	}
	for i, row := range tab.Rows {
		if want := fmt.Sprint(8 << i); row[0] != want {
			t.Errorf("row %d distance = %s, want %s", i, row[0], want)
		}
		edges := "10"
		switch row[0] {
		case "8":
			edges = "4"
		case "16":
			edges = "7"
		}
		if row[5] != edges || row[6] != "4" {
			t.Errorf("row %d (%s B): %s graph edges, %s groups; want %s and 4", i, row[0], row[5], row[6], edges)
		}
		shared := "128"
		if row[0] == "128" {
			shared = "-"
		}
		if row[7] != shared {
			t.Errorf("row %d (%s B) same layout as %q, want %q", i, row[0], row[7], shared)
		}
		if !slices.Equal(row[1:5], tab.Rows[4][1:5]) {
			t.Errorf("row %d %v, figures differ from the 128 B row %v it shares", i, row, tab.Rows[4])
		}
	}
	omnetpp := fig14.Rows[0]
	if want := "jemalloc baseline median: " + omnetpp[3] + "s"; tab.Notes[0] != want {
		t.Errorf("fig12 note %q, want %q (fig14's omnetpp baseline)", tab.Notes[0], want)
	}
	if got, want := tab.Rows[4][4], omnetpp[2]; got != want {
		t.Errorf("fig12 128 B point %s vs baseline, fig14 omnetpp HALO %s", got, want)
	}
	// Every training run has a profiling row: the engine's own at the
	// default distance and fig12's eight re-profiles, in distance order.
	stats := e.ProfileStats()
	if len(stats) != 9 {
		t.Fatalf("%d profiling rows, want 9", len(stats))
	}
	for i, s := range stats {
		if s.Workload != "omnetpp" || s.AffinityDistance != 8<<i || s.Events == 0 || s.WallNs <= 0 {
			t.Errorf("profiling row %d = %+v, want omnetpp at %d B with events and wall time", i, s, 8<<i)
		}
	}
	// The JSON rows say the same: each halo@A= row names "halo" and
	// carries no trial time of its own.
	for _, r := range e.BenchResults() {
		if !strings.HasPrefix(r.Technique, "halo@A=") {
			if r.SharesLayoutWith != "" || r.TrialNs <= 0 {
				t.Errorf("%s/%s: shares %q, trial_ns %d; want its own trial set", r.Workload, r.Technique, r.SharesLayoutWith, r.TrialNs)
			}
			continue
		}
		if r.SharesLayoutWith != "halo" || r.TrialNs != 0 {
			t.Errorf("%s/%s: shares %q, trial_ns %d; want \"halo\" and 0", r.Workload, r.Technique, r.SharesLayoutWith, r.TrialNs)
		}
	}
}

// TestSummaryCoalesces: concurrent summaryFor calls for one layout under
// different labels run one trial set, and both rows resolve to it.
func TestSummaryCoalesces(t *testing.T) {
	e := quickEngine("art")
	a, err := e.artefactsFor(workloads.MustGet("art"))
	if err != nil {
		t.Fatal(err)
	}
	before := vmRuns()
	sums := make([]measure.Summary, 4)
	err = pool.Map(len(sums), 0, func(i int) error {
		var err error
		sums[i], err = e.summaryFor(a, fmt.Sprintf("halo%d", i), a.pols["halo"])
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := vmRuns()-before, float64(e.Trials()); got != want {
		t.Fatalf("four concurrent requests for one layout made %v VM runs, want %v", got, want)
	}
	for i, s := range sums[1:] {
		if s.Median != sums[0].Median {
			t.Fatalf("request %d got a different summary", i+1)
		}
	}
	if len(e.sums) != 1 || len(e.rows) != 4 {
		t.Fatalf("%d trial sets for %d rows, want 1 for 4", len(e.sums), len(e.rows))
	}
}

func TestFig13QuickShape(t *testing.T) {
	tab, err := quickEngine("art").Fig13()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 1 || tab.Rows[0][0] != "art" {
		t.Fatalf("rows = %v", tab.Rows)
	}
	// art's miss reduction must be positive under both techniques.
	for col := 1; col <= 2; col++ {
		if !strings.HasPrefix(tab.Rows[0][col], "+") {
			t.Fatalf("art column %d not positive: %v", col, tab.Rows[0])
		}
	}
}

func TestTable1Quick(t *testing.T) {
	tab, err := quickEngine("health").Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 1 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if !strings.Contains(tab.Rows[0][1], "%") {
		t.Fatalf("frag cell = %q", tab.Rows[0][1])
	}
}

// TestPartialSweepReportsTrials: a sweep that measures no jemalloc
// baseline (tab1 alone) still reports the trial sets it ran, with the
// baseline-relative figures left empty.
func TestPartialSweepReportsTrials(t *testing.T) {
	e := quickEngine("art")
	if _, err := e.Run([]string{"tab1"}); err != nil {
		t.Fatal(err)
	}
	for _, r := range e.BenchResults() {
		if r.Workload == "art" && r.Technique == "halo" {
			if r.TrialNs <= 0 || r.Seconds <= 0 {
				t.Fatalf("art/halo: trial_ns %d, seconds %v; want its trial set", r.TrialNs, r.Seconds)
			}
			if r.BaselineSeconds != 0 || r.MissReductionPct != 0 || r.SpeedupPct != 0 || r.Regressed {
				t.Fatalf("art/halo without a baseline carries baseline figures: %+v", r)
			}
			return
		}
	}
	t.Fatalf("no art/halo row in %+v", e.BenchResults())
}

func TestRomsStreamsQuick(t *testing.T) {
	tab, err := quickEngine("roms").RomsStreams()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 1 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := quickEngine("art").Run([]string{"nope"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[uint64]string{
		512:     "512B",
		2 << 10: "2.00KiB",
		3 << 20: "3.00MiB",
	}
	for in, want := range cases {
		if got := formatBytes(in); got != want {
			t.Fatalf("formatBytes(%d) = %q, want %q", in, got, want)
		}
	}
}

// TestLeelaHALORegressed: on leela HALO trims L1D misses slightly but
// loses cycles (its groups scatter the heap over many more pages, so DTLB
// misses climb), so the verdict must call it a regression rather than
// read the miss figure alone.
func TestLeelaHALORegressed(t *testing.T) {
	e := quickEngine("leela")
	if _, err := e.Fig14(); err != nil {
		t.Fatal(err)
	}
	for _, r := range e.BenchResults() {
		if r.Workload == "leela" && r.Technique == "halo" {
			if !r.Regressed {
				t.Fatalf("leela halo: miss reduction %+.2f%%, speedup %+.2f%%, Regressed = false",
					r.MissReductionPct, r.SpeedupPct)
			}
			return
		}
	}
	t.Fatal("no leela/halo BenchResult")
}

// TestPovrayHDSRegressed: on povray the hot-data-streams layout adds L1D
// misses and cycles while HALO helps, so the tables' regressed column must
// name HDS, not judge HALO alone.
func TestPovrayHDSRegressed(t *testing.T) {
	e := quickEngine("povray")
	for _, fig := range []func() (*Table, error){e.Fig13, e.Fig14} {
		tab, err := fig()
		if err != nil {
			t.Fatal(err)
		}
		if len(tab.Rows) != 1 {
			t.Fatalf("%s: %d rows, want 1", tab.ID, len(tab.Rows))
		}
		if got := tab.Rows[0][len(tab.Rows[0])-1]; got != "HDS" {
			t.Fatalf("%s povray: regressed = %q, want HDS (row %q)", tab.ID, got, tab.Rows[0])
		}
	}
}
