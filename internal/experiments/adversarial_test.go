package experiments

import (
	"runtime"
	"testing"

	"halo/internal/measure"
)

// TestAdversarialQuick runs the adversarial experiment end to end at test
// scale and checks the table's semantic content: every hostile workload
// appears, the shadow-heap replay is clean everywhere, the pinned
// miss-regressor row carries the REGRESSED verdict, and adv-adjacent,
// whose miss reduction is not positive, is not reported as helped.
func TestAdversarialQuick(t *testing.T) {
	tab, err := quickEngine().Adversarial()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tab.Rows))
	}
	seen := map[string]string{}
	for _, row := range tab.Rows {
		if got := row[len(row)-1]; got != "clean" {
			t.Fatalf("%s: corruption column = %q", row[0], got)
		}
		seen[row[0]] = row[5]
	}
	if v := seen["adv-regress"]; v != "REGRESSED" {
		t.Fatalf("adv-regress verdict = %q, want REGRESSED", v)
	}
	if v := seen["adv-adjacent"]; v == "helped" {
		t.Fatalf("adv-adjacent verdict = %q, want neutral or worse", v)
	}
}

// TestAdversarialDifferential is the policy-on/policy-off differential for
// the hostile-heap family: every adversarial workload must compute the
// same program result and leave the same final heap contents (live
// objects and payload bytes) under the HALO policy as under the baseline
// allocator — grouping may move objects, never change semantics. The
// trial summaries are measured at GOMAXPROCS 1, 2, 4 and 8, which sizes
// the worker pool, and must be bit-identical across those widths.
func TestAdversarialDifferential(t *testing.T) {
	e := quickEngine()
	procs := []int{1, 2, 4, 8}
	for _, w := range e.adversarialList() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			a, err := e.artefactsFor(w)
			if err != nil {
				t.Fatal(err)
			}
			policies := []struct {
				name string
				pol  measure.Policy
			}{
				{"jemalloc", a.pols["jemalloc"]},
				{"halo", a.pols["halo"]},
			}
			// Per-seed differential: policy on vs off, same result, same
			// final heap.
			for seed := uint64(1000); seed < 1003; seed++ {
				base, err := measure.Run(a.refProg, a.pols["jemalloc"], seed, e.machine)
				if err != nil {
					t.Fatal(err)
				}
				halo, err := measure.Run(a.refProg, a.pols["halo"], seed, e.machine)
				if err != nil {
					t.Fatal(err)
				}
				if base.Result != halo.Result {
					t.Fatalf("seed %d: result diverged: jemalloc %d, halo %d",
						seed, base.Result, halo.Result)
				}
				if base.TotalLiveObjects() != halo.TotalLiveObjects() ||
					base.TotalLiveBytes() != halo.TotalLiveBytes() {
					t.Fatalf("seed %d: final heap diverged: jemalloc %d objs/%d B, halo %d objs/%d B",
						seed, base.TotalLiveObjects(), base.TotalLiveBytes(),
						halo.TotalLiveObjects(), halo.TotalLiveBytes())
				}
			}
			// Pool-width pinning: the trial summary must not depend on
			// GOMAXPROCS under either policy.
			for _, p := range policies {
				var ref measure.Summary
				for i, np := range procs {
					prev := runtime.GOMAXPROCS(np)
					sum, err := measure.MeasureTrials(a.refProg, p.pol, 2, e.opts.Seed, e.machine)
					runtime.GOMAXPROCS(prev)
					if err != nil {
						t.Fatal(err)
					}
					if i == 0 {
						ref = sum
						continue
					}
					if sum != ref {
						t.Fatalf("%s: summary at GOMAXPROCS %d differs from GOMAXPROCS %d",
							p.name, np, procs[0])
					}
				}
			}
		})
	}
}
