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
	rows, err := e.perWorkload(e.adversarialList(), func(a *artefacts) ([]string, error) {
		s, err := e.summaries(a, "jemalloc", "halo")
		if err != nil {
			return nil, err
		}
		base, halo := s[0], s[1]
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
		seq := workloads.AdvSequence(a.w.Name)
		if _, err := adversary.ReplayChecked(
			seq.HeapOps(8),
			adversary.ReplayConfig{Name: a.w.Name, Halloc: a.w.HallocConfig(), Groups: 4},
		); err != nil {
			corruption = "CORRUPT: " + err.Error()
		}
		return []string{
			fmt.Sprintf("%d", halo.Median.GroupedAllocs),
			fmt.Sprintf("%+.2f", missRed),
			fmt.Sprintf("%+.2f", speedup),
			fmt.Sprintf("%.1f", halo.Median.FragPct),
			verdict,
			corruption,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Table{
		ID:    "adversarial",
		Title: "adversarial workloads: HALO vs jemalloc baseline (hostile-heap family)",
		Columns: []string{"workload", "grouped allocs", "miss reduction (%)",
			"speedup (%)", "frag@peak (%)", "verdict", "corruption"},
		Rows: rows,
		Notes: []string{
			"verdict: REGRESSED = grouping added misses or slowed the run; helped = positive miss reduction and no slowdown; neutral = zero miss reduction and no slowdown; defeated = grouping never engaged",
			"corruption: the scenario's heap-op stream replayed under the shadow-heap oracle (clean = zero findings)",
		},
	}, nil
}
