package measure

import (
	"math"
	"testing"

	"halo/internal/cache"
	"halo/internal/obs"
	"halo/internal/workloads"
)

func TestQuartiles(t *testing.T) {
	q := QuartilesOf([]float64{1, 2, 3, 4, 5})
	if q.Median != 3 || q.P25 != 2 || q.P75 != 4 {
		t.Fatalf("quartiles = %+v", q)
	}
	q = QuartilesOf([]float64{10})
	if q.Median != 10 || q.P25 != 10 || q.P75 != 10 {
		t.Fatalf("singleton quartiles = %+v", q)
	}
	if q := QuartilesOf(nil); q.Median != 0 {
		t.Fatalf("empty quartiles = %+v", q)
	}
	// Unsorted input.
	q = QuartilesOf([]float64{5, 1, 3, 2, 4})
	if q.Median != 3 {
		t.Fatalf("unsorted median = %v", q.Median)
	}
}

func TestPercentileInterpolation(t *testing.T) {
	s := []float64{0, 10}
	if p := Percentile(s, 50); p != 5 {
		t.Fatalf("p50 = %v", p)
	}
	if p := Percentile(s, 25); p != 2.5 {
		t.Fatalf("p25 = %v", p)
	}
	if p := Percentile(s, 100); p != 10 {
		t.Fatalf("p100 = %v", p)
	}
	if p := Percentile(s, 0); p != 0 {
		t.Fatalf("p0 = %v", p)
	}
}

func TestImprovement(t *testing.T) {
	if got := Improvement(100, 80); got != 20 {
		t.Fatalf("improvement = %v", got)
	}
	if got := Improvement(100, 120); got != -20 {
		t.Fatalf("degradation = %v", got)
	}
	if got := Improvement(0, 50); got != 0 {
		t.Fatalf("zero baseline = %v", got)
	}
}

func TestRunPoliciesAgree(t *testing.T) {
	// Every policy must run the program to the same result (uninitialised
	// reads would break this).
	w := workloads.MustGet("art")
	p := w.Build(w.TestScale)
	machine := cache.XeonW2195()
	var want int64
	for i, pol := range []Policy{
		{Kind: Jemalloc},
		{Kind: Ptmalloc},
		{Kind: RandomPools, Pools: 4},
	} {
		r, err := Run(p, pol, 77, machine)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = r.Result
		} else if r.Result != want {
			t.Fatalf("policy %v result %d != %d", pol.Kind, r.Result, want)
		}
		if r.Steps == 0 || r.Cache.L1D.Accesses == 0 || r.Seconds <= 0 {
			t.Fatalf("degenerate metrics: %+v", r)
		}
	}
}

func TestRunSeedVariation(t *testing.T) {
	w := workloads.MustGet("analyzer")
	p := w.Build(w.TestScale)
	machine := cache.XeonW2195()
	r1, err := Run(p, Policy{Kind: Jemalloc}, 1, machine)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(p, Policy{Kind: Jemalloc}, 1, machine)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles != r2.Cycles {
		t.Fatal("same seed not deterministic")
	}
	r3, err := Run(p, Policy{Kind: Jemalloc}, 2, machine)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles == r3.Cycles {
		t.Fatal("different seeds produced identical runs (no input variation)")
	}
}

func TestMeasureTrials(t *testing.T) {
	w := workloads.MustGet("art")
	p := w.Build(w.TestScale)
	runs := func() float64 { return obs.Default.Snapshot()["halo_vm_runs_total"] }
	before := runs()
	s, err := MeasureTrials(p, Policy{Kind: Jemalloc}, 3, 100, cache.XeonW2195())
	if err != nil {
		t.Fatal(err)
	}
	if s.Trials != 3 {
		t.Fatalf("trials = %d", s.Trials)
	}
	if got := runs() - before; got != 3 {
		t.Fatalf("3 trials made %v VM runs", got)
	}
	if s.Seconds.P25 > s.Seconds.Median || s.Seconds.Median > s.Seconds.P75 {
		t.Fatalf("quartiles disordered: %+v", s.Seconds)
	}
	if math.IsNaN(s.Seconds.Median) || s.Seconds.Median <= 0 {
		t.Fatalf("median = %v", s.Seconds.Median)
	}
	// The representative run must carry consistent metrics.
	if s.Median.Steps == 0 {
		t.Fatal("median run empty")
	}
}

func TestHALOPolicyRequiresBinary(t *testing.T) {
	w := workloads.MustGet("art")
	p := w.Build(w.TestScale)
	if _, err := Run(p, Policy{Kind: HALO}, 1, cache.XeonW2195()); err == nil {
		t.Fatal("HALO policy without rewritten binary accepted")
	}
}

func TestPolicyKindString(t *testing.T) {
	for _, k := range []PolicyKind{Jemalloc, Ptmalloc, HALO, HDS, RandomPools} {
		if k.String() == "" {
			t.Fatalf("kind %d has no name", k)
		}
	}
}
