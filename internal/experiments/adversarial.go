package experiments

import (
	"fmt"

	"halo/internal/adversary"
	"halo/internal/measure"
	"halo/internal/workloads"
)

// Adversarial evaluates the hostile-heap workload family end to end: each
// generated scenario runs the full pipeline and is measured HALO vs the
// jemalloc baseline, reporting where grouping helps, changes nothing,
// hurts (more misses or a slower run, flagged REGRESSED) or is defeated, plus
// a corruption verdict — the scenario's flattened heap-op stream replayed
// against the group allocator under the shadow-heap oracle, with the
// workload's own allocator tuning.
func (e *Engine) Adversarial() (*Table, error) {
	list := e.adversarialList()
	t := &Table{
		ID:    "adversarial",
		Title: "adversarial workloads: HALO vs jemalloc baseline (hostile-heap family)",
		Columns: []string{"workload", "grouped allocs", "miss reduction (%)",
			"speedup (%)", "frag@peak (%)", "verdict", "corruption"},
	}
	t.Notes = append(t.Notes,
		"verdict: REGRESSED = grouping added misses or slowed the run; helped = positive miss reduction and no slowdown; neutral = zero miss reduction and no slowdown; defeated = grouping never engaged",
		"corruption: the scenario's heap-op stream replayed under the shadow-heap oracle (clean = zero findings)")
	rows := make([][]string, len(list))
	err := e.forEachWorkload(list, func(i int, w workloads.Workload) error {
		a, err := e.artefactsFor(w)
		if err != nil {
			return err
		}
		base, err := e.summaryFor(a, "jemalloc", a.polBase)
		if err != nil {
			return err
		}
		halo, err := e.summaryFor(a, "halo", a.polHALO)
		if err != nil {
			return err
		}
		missRed := measure.Improvement(base.L1DMiss.Median, halo.L1DMiss.Median)
		speedup := measure.Improvement(base.Seconds.Median, halo.Seconds.Median)
		var verdict string
		switch {
		case halo.Median.GroupedAllocs == 0:
			verdict = "defeated"
		case regressed(missRed, speedup):
			verdict = "REGRESSED"
		case missRed > 0:
			verdict = "helped"
		default:
			verdict = "neutral"
		}
		corruption := "clean"
		seq := workloads.AdvSequence(w.Name)
		if _, err := adversary.ReplayChecked(
			seq.HeapOps(8),
			adversary.ReplayConfig{Name: w.Name, Halloc: w.HallocConfig(), Groups: 4},
		); err != nil {
			corruption = "CORRUPT: " + err.Error()
		}
		rows[i] = []string{
			w.Name,
			fmt.Sprintf("%d", halo.Median.GroupedAllocs),
			fmt.Sprintf("%+.2f", missRed),
			fmt.Sprintf("%+.2f", speedup),
			fmt.Sprintf("%.1f", halo.Median.FragPct),
			verdict,
			corruption,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}
