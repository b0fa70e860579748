package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"halo/internal/cache"
	"halo/internal/core"
	"halo/internal/measure"
	"halo/internal/profstore"
	"halo/internal/workloads"
)

// Golden values recorded from the seed (pre-batching) engine: the per-event
// Hooks-dispatch VM at commit 7935e99, running each workload's test-scale
// build. The batched event engine must reproduce them bit for bit — that is
// the determinism contract of the event stream (vm/event.go): batching
// changes delivery granularity, never content or order.
type goldenWorkload struct {
	name string

	// sha256 of profstore.Encode for core.Profile with RecordTrace=true
	// and the default training seed. Re-pinned for image format version
	// 2: the seed engine's version-1 image with its per-context serial
	// logs left out encodes to these bytes. The allocation order those
	// logs witnessed is pinned by internal/profile's TestAllocationOrder.
	profileSHA string

	// measure.Run of the test-scale build, seed 1000, XeonW2195, one row
	// per policy. The jemalloc-like baseline row dates from the seed
	// engine; the grouped rows run the experiment engine's quick-mode
	// policies (profiled and measured on the test input).
	runs []goldenRun

	// measure.MeasureTrials(trials=4, baseSeed=1000) quartile medians.
	trialCyclesMedian float64
}

type goldenRun struct {
	policy        string // jemalloc, halo, hds or random
	result        int64
	steps         uint64
	loads, stores uint64
	l1dMisses     uint64
	l1dAccesses   uint64
	cycles        uint64

	// Group-allocator statistics (zero under jemalloc).
	grouped, forwarded uint64
	fragBytes          uint64
}

var goldens = []goldenWorkload{
	{
		name:       "povray",
		profileSHA: "cdd0956725ec82ba2c74ac183977d79f17427b387ceec15ba7fde3d20177d75c",
		runs: []goldenRun{
			{policy: "jemalloc", result: 56986, steps: 291272, loads: 83333, stores: 25031, l1dMisses: 22809, l1dAccesses: 108364, cycles: 475284},
			{policy: "halo", result: 56986, steps: 292522, loads: 83333, stores: 25031, l1dMisses: 18793, l1dAccesses: 108364, cycles: 422130, grouped: 625, forwarded: 872, fragBytes: 3106392},
			{policy: "hds", result: 56986, steps: 291272, loads: 83333, stores: 25031, l1dMisses: 28284, l1dAccesses: 108364, cycles: 576950, grouped: 1497, forwarded: 0, fragBytes: 1002360},
			{policy: "random", result: 56986, steps: 291272, loads: 83333, stores: 25031, l1dMisses: 25527, l1dAccesses: 108364, cycles: 546015, grouped: 1497, forwarded: 0, fragBytes: 4148088},
		},
		trialCyclesMedian: 464698,
	},
	{
		name:       "omnetpp",
		profileSHA: "30f3fee4783fa8411c5c5ab1291ffeb84bc8bfee40abfc6db6cb3a34a052926c",
		runs: []goldenRun{
			{policy: "jemalloc", result: 4511129, steps: 4431092, loads: 1513817, stores: 545375, l1dMisses: 586887, l1dAccesses: 2059192, cycles: 9287376},
			{policy: "halo", result: 4511129, steps: 4434292, loads: 1513817, stores: 545375, l1dMisses: 265625, l1dAccesses: 2059192, cycles: 5444488, grouped: 1600, forwarded: 4401, fragBytes: 447488},
			{policy: "hds", result: 4511129, steps: 4431092, loads: 1513817, stores: 545375, l1dMisses: 418931, l1dAccesses: 2059192, cycles: 7473512, grouped: 6000, forwarded: 1, fragBytes: 213584},
			{policy: "random", result: 4511129, steps: 4431092, loads: 1513817, stores: 545375, l1dMisses: 424091, l1dAccesses: 2059192, cycles: 7565965, grouped: 6000, forwarded: 1, fragBytes: 344656},
		},
		trialCyclesMedian: 9272469.5,
	},
}

// TestGoldenProfileImages asserts the batched engine reproduces the seed
// engine's profiles byte for byte in the current image format.
func TestGoldenProfileImages(t *testing.T) {
	for _, g := range goldens {
		t.Run(g.name, func(t *testing.T) {
			w := workloads.MustGet(g.name)
			p := w.Build(w.TestScale)
			cfg := core.Config{}
			cfg.Profile.RecordTrace = true
			prof, err := core.Profile(p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			img, err := profstore.Encode(prof)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(img)
			if got := hex.EncodeToString(sum[:]); got != g.profileSHA {
				t.Errorf("profile image sha256 = %s, want seed engine's %s (len %d)",
					got, g.profileSHA, len(img))
			}
		})
	}
}

// TestGoldenRunResults asserts measurement runs match the recorded
// RunResults exactly: the baseline pins the VM and cache model, the grouped
// rows also pin the policies the experiment engine builds.
func TestGoldenRunResults(t *testing.T) {
	for _, g := range goldens {
		t.Run(g.name, func(t *testing.T) {
			w := workloads.MustGet(g.name)
			a, err := NewEngine(Options{Quick: true, Workloads: []string{g.name}}).artefactsFor(w)
			if err != nil {
				t.Fatal(err)
			}
			for _, want := range g.runs {
				t.Run(want.policy, func(t *testing.T) {
					r, err := measure.Run(a.refProg, a.pols[want.policy], 1000, cache.XeonW2195())
					if err != nil {
						t.Fatal(err)
					}
					got := goldenRun{
						policy: want.policy, result: r.Result, steps: r.Steps, loads: r.Loads, stores: r.Stores,
						l1dMisses: r.Cache.L1D.Misses, l1dAccesses: r.Cache.L1D.Accesses, cycles: r.Cycles,
						grouped: r.GroupedAllocs, forwarded: r.ForwardedAlloc, fragBytes: r.FragBytes,
					}
					if got != want {
						t.Errorf("run = %+v\nwant  %+v", got, want)
					}
				})
			}
		})
	}
}

// TestGoldenTrialsWorkerInvariance asserts the parallel measurement
// harness reproduces the seed engine's serial trial summary at every
// worker-pool width, which GOMAXPROCS sets.
func TestGoldenTrialsWorkerInvariance(t *testing.T) {
	for _, g := range goldens {
		t.Run(g.name, func(t *testing.T) {
			w := workloads.MustGet(g.name)
			p := w.Build(w.TestScale)
			for _, procs := range []int{1, 2, 4, 8} {
				prev := runtime.GOMAXPROCS(procs)
				s, err := measure.MeasureTrials(p, measure.Policy{Kind: measure.Jemalloc},
					4, 1000, cache.XeonW2195())
				runtime.GOMAXPROCS(prev)
				if err != nil {
					t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
				}
				if s.Cycles.Median != g.trialCyclesMedian {
					t.Errorf("GOMAXPROCS=%d: cycles median = %v, want seed engine's %v",
						procs, s.Cycles.Median, g.trialCyclesMedian)
				}
			}
		})
	}
}

// TestGoldenBatchSizeInvariance asserts the determinism contract directly:
// profile images are identical whether events are delivered one at a time
// (BatchSize 1, the per-event seed behaviour) or in full batches.
func TestGoldenBatchSizeInvariance(t *testing.T) {
	w := workloads.MustGet("povray")
	p := w.Build(w.TestScale)
	encodeAt := func(batch int) []byte {
		cfg := core.Config{ProfileBatchSize: batch}
		cfg.Profile.RecordTrace = true
		prof, err := core.Profile(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		img, err := profstore.Encode(prof)
		if err != nil {
			t.Fatal(err)
		}
		return img
	}
	want := encodeAt(1)
	for _, batch := range []int{2, 7, 4096} {
		got := encodeAt(batch)
		if string(got) != string(want) {
			t.Errorf("batch=%d: profile image differs from per-event delivery", batch)
		}
	}
}

// TestGoldenBatchSizeFingerprints pins the absolute profile fingerprints at
// batch sizes 1, 64 and 4096 for every golden workload: each must hash to
// the seed engine's recorded image. This is stronger than pairwise
// invariance — the predecoded threaded dispatcher must reproduce the
// pre-batching per-event engine's bytes exactly at every delivery
// granularity.
func TestGoldenBatchSizeFingerprints(t *testing.T) {
	for _, g := range goldens {
		t.Run(g.name, func(t *testing.T) {
			w := workloads.MustGet(g.name)
			p := w.Build(w.TestScale)
			for _, batch := range []int{1, 64, 4096} {
				cfg := core.Config{ProfileBatchSize: batch}
				cfg.Profile.RecordTrace = true
				prof, err := core.Profile(p, cfg)
				if err != nil {
					t.Fatalf("batch=%d: %v", batch, err)
				}
				img, err := profstore.Encode(prof)
				if err != nil {
					t.Fatalf("batch=%d: %v", batch, err)
				}
				sum := sha256.Sum256(img)
				if got := hex.EncodeToString(sum[:]); got != g.profileSHA {
					t.Errorf("batch=%d: profile image sha256 = %s, want %s", batch, got, g.profileSHA)
				}
			}
		})
	}
}
