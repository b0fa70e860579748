package main

import (
	"bytes"
	"errors"
	"math"
	"path/filepath"
	"testing"
)

// runFixed executes a workload with a fixed op count per round and fails the
// test unless every op passed its checks.
func runFixed(t *testing.T, workload string, seed uint64, ops int, trace bool) result {
	t.Helper()
	res, _, err := execute(specs[workload], options{
		workload: workload,
		seed:     seed,
		ops:      ops,
		trace:    trace,
		traceOut: filepath.Join(t.TempDir(), "trace.json"),
	})
	if err != nil {
		t.Fatal(err)
	}
	want := ops
	if !trace {
		want *= specs[workload].rounds
	}
	if !res.Correct || res.Failed != 0 || res.Attempted != want {
		t.Fatalf("correct=%v failed=%d attempted=%d, want all %d ops to pass", res.Correct, res.Failed, res.Attempted, want)
	}
	return res
}

// exercised are counters each workload must drive: its layers do work on
// every op.
var exercised = map[string][]string{
	"pipeline": {"vm.steps", "alloc.calls", "profile.events", "profile.contexts", "hds.rules", "hds.streams", "group.groups", "identify.selectors", "rewrite.sites"},
	"evaluate": {"vm.steps", "cache.events", "alloc.calls", "halloc.calls", "halloc.grouped", "halloc.forwarded"},
	"service":  {"group.groups", "identify.selectors", "rewrite.sites", "service.cache_hits", "service.cache_misses"},
}

func TestSameSeedRepeats(t *testing.T) {
	for _, w := range specNames() {
		t.Run(w, func(t *testing.T) {
			a := runFixed(t, w, 7, 4, true)
			b := runFixed(t, w, 7, 4, true)
			for _, k := range layerCounts {
				if a.Metrics[k] != b.Metrics[k] {
					t.Errorf("%s: %v then %v at one seed", k, a.Metrics[k].Value, b.Metrics[k].Value)
				}
			}
			for _, k := range exercised[w] {
				if a.Metrics[k].Value == 0 {
					t.Errorf("%s is 0: the layer did no work", k)
				}
			}
			// Synchronous self times and the remainder add up to the op.
			async := map[string]bool{}
			for _, name := range jobStages {
				async[name] = true
			}
			var sum float64
			for name, m := range layerMetric {
				if !async[name] {
					sum += a.Metrics[m].Value
				}
			}
			if op := a.Metrics["trace.op_s"].Value; math.Abs(sum-op) > 1e-9*max(1, op) {
				t.Errorf("self times sum to %v s, traced op is %v s", sum, op)
			}

			qa := runFixed(t, w, 7, 2, false)
			qb := runFixed(t, w, 7, 2, false)
			for _, k := range []string{"l1d_miss_reduction_pct", "sim_speedup_pct"} {
				if qa.Metrics[k] != qb.Metrics[k] || qa.Metrics[k].Value == 0 {
					t.Errorf("%s: %v then %v at one seed", k, qa.Metrics[k].Value, qb.Metrics[k].Value)
				}
			}
		})
	}
}

func TestOtherSeedChangesInputs(t *testing.T) {
	pipelines := [2]*pipeline{}
	services := [2]*svc{}
	for k, seed := range []uint64{7, 8} {
		setup, err := preparePipeline(seed, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, err := setup()
		if err != nil {
			t.Fatal(err)
		}
		pipelines[k] = b.(*pipeline)
		if setup, err = prepareService(seed, 2); err != nil {
			t.Fatal(err)
		}
		if b, err = setup(); err != nil {
			t.Fatal(err)
		}
		services[k] = b.(*svc)
		b.close()
	}
	if pipelines[0].mseed == pipelines[1].mseed {
		t.Error("measurement seed did not change")
	}
	changed := false
	for i := range pipelines[0].ref {
		changed = changed || pipelines[0].ref[i].profileSHA != pipelines[1].ref[i].profileSHA
	}
	if !changed {
		t.Error("no training profile changed")
	}
	if bytes.Equal(services[0].in.blobs[0], services[1].in.blobs[0]) {
		t.Error("service training profiles did not change")
	}
	for _, w := range specNames() {
		t.Run(w, func(t *testing.T) { runFixed(t, w, 8, 2, false) })
	}
}

func TestTailOf(t *testing.T) {
	lat := make([]float64, 30)
	for i := range lat {
		lat[i] = float64(i)
	}
	v, pct := tailOf(lat)
	if v != 19 || math.Abs(pct-200.0/3) > 1e-9 {
		t.Errorf("tailOf = %v at p%v, want 19 at p66.7", v, pct)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", ID: 0, Parent: -1, BusyNs: 100},
		{Name: "vm", ID: 1, Parent: 0, BusyNs: 70},
		{Name: "cache.consume", ID: 2, Parent: 1, BusyNs: 30, Calls: 5},
		{Name: "alloc", ID: 3, Parent: 1, BusyNs: 10, Calls: 9},
		{Name: "job.group", ID: 4, Parent: 0, BusyNs: 50, Async: true},
	}
	got := selfTimes(spans)
	want := map[string]int64{"op": 30, "vm": 30, "cache.consume": 30, "alloc": 10, "job.group": 50}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self(%s) = %d, want %d", k, got[k], v)
		}
	}
}

// failingBench fails every third op, half of them in the op and half in
// its check.
type failingBench struct{}

func (failingBench) op(i int, _ *tracer) (func() error, error) {
	if i%6 == 0 {
		return nil, errors.New("request failed")
	}
	return func() error {
		if i%6 == 3 {
			return errors.New("check failed")
		}
		return nil
	}, nil
}

func (failingBench) finish() (int, quality, error) { return 0, quality{}, nil }
func (failingBench) close()                        {}

func TestFailedOpsCounted(t *testing.T) {
	for _, gcEachOp := range []bool{true, false} {
		lp := measureOps(failingBench{}, 0, 60, gcEachOp, false)
		if lp.failed != 20 || lp.firstErr == nil {
			t.Errorf("gcEachOp=%v: %d failed ops (first: %v), want 20", gcEachOp, lp.failed, lp.firstErr)
		}
	}
}
