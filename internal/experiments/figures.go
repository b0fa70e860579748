package experiments

import (
	"fmt"
	"slices"
	"strings"

	"halo/internal/core"
	"halo/internal/measure"
	"halo/internal/obs"
	"halo/internal/pool"
	"halo/internal/profile"
	"halo/internal/workloads"
)

// Fig9 reproduces Figure 9: the allocation groups formed for the povray
// test workload, rendered as context chains per group.
func (e *Engine) Fig9() (*Table, error) {
	a, err := e.artefactsFor(workloads.MustGet("povray"))
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig9",
		Title:   "Allocation groups for the povray test workload",
		Columns: []string{"group", "weight", "accesses", "member context"},
	}
	for _, g := range a.opt.Groups {
		for i, m := range g.Members {
			gid, w, acc := "", "", ""
			if i == 0 {
				gid = fmt.Sprintf("%d", g.ID)
				w = fmt.Sprintf("%d", g.Weight)
				acc = fmt.Sprintf("%d", g.Accesses)
			}
			t.Rows = append(t.Rows, []string{
				gid, w, acc, a.opt.Profile.Contexts[m].Describe(a.opt.Input),
			})
		}
	}
	t.Notes = append(t.Notes, fmt.Sprintf("%d hot contexts remain ungrouped (grey nodes in the paper's figure)", a.opt.UngroupedHot()))
	return t, nil
}

// Fig12 reproduces Figure 12: omnetpp execution time at power-of-two
// affinity distances from 2^3 to 2^17, against the unmodified-jemalloc
// median (the paper's dashed line). The baseline and the 128 B point (the
// profiler's default distance, so artefactsFor's own configuration) are
// the engine's cached "jemalloc" and "halo" summaries; every other
// distance re-profiles the test input, which ProfileStats reports as a
// training run at that distance, and is measured as "halo@A=<bytes>"
// unless its layout was measured already. The "graph edges" and "groups"
// columns give each distance's filtered affinity graph and the groups
// synthesis formed from it, so a flat line can be traced to the graph or
// to grouping. The "same layout as" column names the distance whose trial
// set a row shares, so equal medians are not read as separate
// measurements.
func (e *Engine) Fig12() (*Table, error) {
	a, err := e.artefactsFor(workloads.MustGet("omnetpp"))
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig12",
		Title:   "omnetpp time elapsed vs affinity distance (dashed line = jemalloc baseline)",
		Columns: []string{"affinity distance (B)", "median time (s)", "p25", "p75", "vs baseline", "graph edges", "groups", "same layout as"},
	}
	base, err := e.summaryFor(a, "jemalloc", a.pols["jemalloc"])
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes, fmt.Sprintf("jemalloc baseline median: %.4fs", base.Seconds.Median))

	lo, hi := 3, 17
	if e.opts.Quick {
		hi = 11
	}
	// The sweep points are independent, so they fan out over the worker
	// pool; rows are assembled in distance order afterwards.
	rows := make([][]string, hi-lo+1)
	labels := make([]string, len(rows))
	err = pool.Map(len(rows), 0, func(i int) error {
		dist := uint64(1) << (lo + i)
		label, pol, opt := "halo", a.pols["halo"], a.opt
		if dist != profile.DefaultAffinityDistance {
			// Only the HDS analysis reads the reference trace, and this
			// profile feeds HALO alone.
			cfg := pipelineConfig(a.w)
			cfg.Profile.RecordTrace = false
			cfg.Profile.AffinityDistance = dist
			cfg.Trace = obs.NewTrace()
			var err error
			opt, err = core.Optimize(a.w.Build(a.w.TestScale), cfg)
			if err != nil {
				return fmt.Errorf("fig12 A=%d: %w", dist, err)
			}
			e.mu.Lock()
			e.training = append(e.training, profileStat(a.w.Name, dist, opt.Profile, cfg.Trace.Spans()))
			e.mu.Unlock()
			if pol, err = opt.HALOPolicy(a.refProg, a.w.HallocConfig()); err != nil {
				return fmt.Errorf("fig12 A=%d: %w", dist, err)
			}
			label = fmt.Sprintf("halo@A=%d", dist)
		}
		labels[i] = label
		s, err := e.summaryFor(a, label, pol)
		if err != nil {
			return fmt.Errorf("fig12 A=%d: %w", dist, err)
		}
		delta := measure.Improvement(base.Seconds.Median, s.Seconds.Median)
		rows[i] = []string{
			fmt.Sprintf("%d", dist),
			fmt.Sprintf("%.4f", s.Seconds.Median),
			fmt.Sprintf("%.4f", s.Seconds.P25),
			fmt.Sprintf("%.4f", s.Seconds.P75),
			fmt.Sprintf("%+.2f%%", delta),
			fmt.Sprintf("%d", opt.Graph.NumEdges()),
			fmt.Sprintf("%d", len(opt.Groups)),
		}
		e.opts.logf("[fig12] A=%-6d median %.4fs (%+.2f%%)", dist, s.Seconds.Median, delta)
		return nil
	})
	if err != nil {
		return nil, err
	}
	distinct := 0
	e.mu.Lock()
	for i, row := range rows {
		shared := "-"
		if owner := e.sharedWith(a.w.Name, labels[i]); owner != "" {
			shared = owner
			if j := slices.Index(labels, owner); j >= 0 {
				shared = rows[j][0]
			}
		} else {
			distinct++
		}
		rows[i] = append(row, shared)
	}
	e.mu.Unlock()
	t.Rows = rows
	t.Notes = append(t.Notes, fmt.Sprintf("%d distances, %d distinct layout(s) measured; a row that names a distance under \"same layout as\" has that distance's binary, selectors and allocator config, and its figures are that distance's trial set", len(rows), distinct))
	return t, nil
}

// versusBaseline builds Figure 13 or 14 into t: per workload, how much
// HDS and HALO improve on the jemalloc baseline in the quartiles q picks,
// the baseline's median in baseFmt, and the regressed verdict.
func (e *Engine) versusBaseline(t *Table, q func(measure.Summary) measure.Quartiles, baseFmt string) (*Table, error) {
	rows, err := e.perWorkload(e.workloadList(), func(a *artefacts) ([]string, error) {
		s, err := e.summaries(a, "jemalloc", "halo", "hds")
		if err != nil {
			return nil, err
		}
		base, hal, hd := q(s[0]).Median, q(s[1]).Median, q(s[2]).Median
		return []string{
			fmt.Sprintf("%+.2f%%", measure.Improvement(base, hd)),
			fmt.Sprintf("%+.2f%%", measure.Improvement(base, hal)),
			fmt.Sprintf(baseFmt, base),
			regressedFlag(s[0], s[1], s[2]),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	t.Notes = append(t.Notes, regressedNote)
	return t, nil
}

// Fig13 reproduces Figure 13: the percentage by which HALO and
// hot-data-stream co-allocation reduce L1 data-cache misses.
func (e *Engine) Fig13() (*Table, error) {
	return e.versusBaseline(&Table{
		ID:      "fig13",
		Title:   "L1D cache miss reduction vs jemalloc baseline",
		Columns: []string{"benchmark", "Chilimbi et al. (HDS)", "HALO", "baseline L1D misses", "regressed"},
		Notes:   []string{"positive = fewer misses than the jemalloc-like baseline (paper Figure 13)"},
	}, func(s measure.Summary) measure.Quartiles { return s.L1DMiss }, "%.0f")
}

// Fig14 reproduces Figure 14: execution-time speedup.
func (e *Engine) Fig14() (*Table, error) {
	return e.versusBaseline(&Table{
		ID:      "fig14",
		Title:   "Speedup vs jemalloc baseline (cycle model)",
		Columns: []string{"benchmark", "Chilimbi et al. (HDS)", "HALO", "baseline time (s)", "regressed"},
		Notes:   []string{"positive = faster than baseline; time from the simulator's cycle model (paper Figure 14)"},
	}, func(s measure.Summary) measure.Quartiles { return s.Seconds }, "%.4f")
}

// regressedFlag names, in column order, every technique the regressed
// predicate flags against the baseline in the Figure 13 and 14 tables:
// "HDS", "HALO", "HDS,HALO", or "-" when neither hurt.
func regressedFlag(base, hal, hd measure.Summary) string {
	var names []string
	for _, tech := range []struct {
		name string
		s    measure.Summary
	}{{"HDS", hd}, {"HALO", hal}} {
		if regressed(measure.Improvement(base.L1DMiss.Median, tech.s.L1DMiss.Median),
			measure.Improvement(base.Seconds.Median, tech.s.Seconds.Median)) {
			names = append(names, tech.name)
		}
	}
	if len(names) == 0 {
		return "-"
	}
	return strings.Join(names, ",")
}

const regressedNote = "regressed = the techniques that added L1D misses or slowed the run (cycle model) on this workload; not noise — see the adversarial experiment"

// Fig15 reproduces Figure 15: the effect of an allocator that randomly
// assigns small objects to one of four pools, exposing each benchmark's
// sensitivity to small-object placement.
func (e *Engine) Fig15() (*Table, error) {
	rows, err := e.perWorkload(e.workloadList(), func(a *artefacts) ([]string, error) {
		s, err := e.summaries(a, "jemalloc", "random")
		if err != nil {
			return nil, err
		}
		base, rnd := s[0].Seconds.Median, s[1].Seconds
		return []string{
			fmt.Sprintf("%+.2f%%", measure.Improvement(base, rnd.Median)),
			fmt.Sprintf("%+.2f%%", measure.Improvement(base, rnd.P75)),
			fmt.Sprintf("%+.2f%%", measure.Improvement(base, rnd.P25)),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Table{
		ID:      "fig15",
		Title:   "Speedup under a random 4-pool allocator (placement sensitivity)",
		Columns: []string{"benchmark", "speedup", "p25", "p75"},
		Rows:    rows,
		Notes:   []string{"mostly-negative values mark benchmarks sensitive to small-object placement (paper Figure 15)"},
	}, nil
}

// Table1 reproduces Table 1: fragmentation of grouped data at peak usage
// under HALO's specialised allocator.
func (e *Engine) Table1() (*Table, error) {
	rows, err := e.perWorkload(e.workloadList(), func(a *artefacts) ([]string, error) {
		s, err := e.summaries(a, "halo")
		if err != nil {
			return nil, err
		}
		m := s[0].Median
		return []string{
			fmt.Sprintf("%.2f%%", m.FragPct),
			formatBytes(m.FragBytes),
			fmt.Sprintf("%d", m.GroupedAllocs),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Table{
		ID:      "tab1",
		Title:   "Fragmentation of grouped objects at peak memory usage",
		Columns: []string{"benchmark", "frag (%)", "frag (bytes)", "grouped allocs"},
		Rows:    rows,
		Notes:   []string{"measured at the grouped-data resident high-water mark (paper Table 1)"},
	}, nil
}

// Baseline reproduces the §5.1 observation that the jemalloc-like
// allocator universally outperforms the ptmalloc-like one on L1D misses
// ("reducing L1 data-cache misses by as much as 32%").
func (e *Engine) Baseline() (*Table, error) {
	rows, err := e.perWorkload(e.workloadList(), func(a *artefacts) ([]string, error) {
		s, err := e.summaries(a, "jemalloc", "ptmalloc")
		if err != nil {
			return nil, err
		}
		je, pt := s[0].L1DMiss.Median, s[1].L1DMiss.Median
		return []string{
			fmt.Sprintf("%.0f", pt),
			fmt.Sprintf("%.0f", je),
			fmt.Sprintf("%+.2f%%", measure.Improvement(pt, je)),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Table{
		ID:      "baseline",
		Title:   "jemalloc-like vs ptmalloc-like: L1D miss reduction",
		Columns: []string{"benchmark", "ptmalloc L1D misses", "jemalloc L1D misses", "reduction"},
		Rows:    rows,
	}, nil
}

// RomsStreams reproduces the §5.2 roms observation: HALO's affinity graph
// needs tens of nodes where hot data streams need orders of magnitude more
// streams to represent the same regular behaviour.
func (e *Engine) RomsStreams() (*Table, error) {
	rows, err := e.perWorkload(e.workloadList(), func(a *artefacts) ([]string, error) {
		return []string{
			fmt.Sprintf("%d", a.opt.Graph.NumNodes()),
			fmt.Sprintf("%d", a.hds.Rules),
			fmt.Sprintf("%d", a.hds.Candidates),
			fmt.Sprintf("%d", a.hds.Streams),
			fmt.Sprintf("%d", a.hds.TraceLen),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Table{
		ID:      "roms",
		Title:   "Representation size: affinity graph vs hot data streams",
		Columns: []string{"benchmark", "graph nodes", "grammar rules", "candidate streams", "hot streams", "trace refs"},
		Rows:    rows,
		Notes:   []string{"the paper reports 31 affinity nodes vs >150,000 streams for roms; the ratio, not the absolute count, is the reproduction target"},
	}, nil
}

func formatBytes(b uint64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.2fKiB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%dB", b)
}
