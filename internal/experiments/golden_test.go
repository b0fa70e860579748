package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"maps"
	"math"
	"runtime"
	"slices"
	"testing"

	"halo/internal/cache"
	"halo/internal/core"
	"halo/internal/hds"
	"halo/internal/measure"
	"halo/internal/profile"
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
	// 4: the version-3 image with its reference-trace section (the count
	// and every ref) left out, under version number 4 and a recomputed
	// checksum, encodes to these bytes. Version 3 was the version-2 image
	// without its filtered-graph section and the raw graph's total, and
	// version 2 the seed engine's version-1 image without its per-context
	// serial logs. The allocation order those logs witnessed is pinned by
	// internal/profile's TestAllocationOrder, the trace by
	// TestGoldenTraceWitness.
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
		profileSHA: "5886ff33c943a4f858a8b072dc0a81471ec1db0f136bdac04cd9b7afaf71d839",
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
		profileSHA: "cfad2b7219d752119bf069986194c176b4084b0e4653023581914c105537f8c7",
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
// profile images and reference traces are identical whether events are
// delivered one at a time (BatchSize 1, the per-event seed behaviour) or
// in full batches.
func TestGoldenBatchSizeInvariance(t *testing.T) {
	w := workloads.MustGet("povray")
	p := w.Build(w.TestScale)
	encodeAt := func(batch int) (img []byte, trace string) {
		cfg := core.Config{ProfileBatchSize: batch}
		cfg.Profile.RecordTrace = true
		prof, err := core.Profile(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		img, err = profstore.Encode(prof)
		if err != nil {
			t.Fatal(err)
		}
		return img, traceWitness(prof.Trace)
	}
	want, wantTrace := encodeAt(1)
	for _, batch := range []int{2, 7, 4096} {
		got, gotTrace := encodeAt(batch)
		if string(got) != string(want) {
			t.Errorf("batch=%d: profile image differs from per-event delivery", batch)
		}
		if gotTrace != wantTrace {
			t.Errorf("batch=%d: reference trace differs from per-event delivery", batch)
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

// goldenTraces pins, per workload, the reference trace a traced test-scale
// profile (default training seed) records and the hot-data-streams
// analysis of it (hds.MaxGroups from the workload, as the experiment
// engine sets it): traceWitness and analysisWitness. Both were computed
// from the version-3 recorder's Profile.Trace, the last that stored the
// trace in profile images, so the goldens pin what those images held.
var goldenTraces = map[string]struct{ trace, analysis string }{
	"health":       {"206049678405e89e2d076c2c75bff02ba348f066b3b6dc9977f7dc3b45337a14", "e328b882925dc54b6d1313612b15c47cdc1fd176bbbbbe87736a0c874877f1b6"},
	"ft":           {"0daf56923b8fabdb0f4f3d51e25aa1f6ff4bd9f0ec6044d65d78cd9182d1bc37", "2b0293c3be977ab236241a84c2b8863aff9e7acf34808ec0bac2f968ad8ef03f"},
	"analyzer":     {"b464d07ae25beb2cf4af5e93a9948d8b9e6ac8d5ea9719357b40abed2f053dd9", "e927fade21eeb18c69a281debd1751f98800f4b7b7d5a6946f7c2fc00beebced"},
	"ammp":         {"72ba90081422ee3faa13e8837cd1bda97a41f5ec16c41ea170f1ed5d877344be", "48721e999040604aa6428311daeb8ceabc1e777b373c212cc8c0d849e3590036"},
	"art":          {"aaac835a817460595a52f86dc84f12255fe5bfc60a98d568d249f872c0d922c1", "4e66e8cc0f17ddc604358f959531205ce5c68dc81273e2369a1f2a46a68a2db5"},
	"equake":       {"2fad62e27f31dfdfd07b3d667633b01b1ad21ac34ffba48930bf8e000bc4aebb", "994994a3ded38ed0d54ac6ef1a6b57b231de7dcca91ca658f7017d657f374e81"},
	"povray":       {"d88fd944a92918821df36c5d3a21f0e65d2601bd98c5923fe30f3c3b5b5e2a49", "aaa3c34dc30433089a1d90604e0f0224fe388ae9181f0b9dd717d1dd0d1a3445"},
	"omnetpp":      {"13ca1872d8d30a2ad65cd0402da12986b0640eef347613725f7beea5d02a0721", "004f76495587a927ade45c7b3349965d888d4b983162c7083bcdf2523e3d4823"},
	"xalanc":       {"18d8f144d625aadcac9a7efff29ab34388ca48eb9859f767810b0e4871dd0a52", "4ea9366681eaba4c950fc0f6499101726b1aa04f60723262401a675ae25c7ae2"},
	"leela":        {"37d27780f7eb28ca2192aa5bd672318f7b0c5cff5d63e5201e318347958128db", "5471e5d0a4e2e5f81d9c11351daec9cb0616f21a4a90e859a92ac5a88e633e4a"},
	"roms":         {"f8f271251539dc1dabac2e9cb4825523b5562732840939ae8bd2e1e418405f2b", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	"adv-frag":     {"db74a3170d86f723164f8b4739097da8852f7793af49224586c77744bf647b5a", "8808dc7f03ba9efff69f63fb5b93cc1860b6f37a689983796a3548089c93d5ea"},
	"adv-adjacent": {"3bcf6c67fec46693440ffd4e1794fc2e5df0f286c85e1956a22805cb3fb6add1", "afad6c0eb8e48223d48ad264b368f0b70263d54e04742569b5fd66a842ca101e"},
	"adv-phase":    {"8ca925aaefdc2ac08e0d06edaf1e4805cf2154f913786d892c0b1f0c99fbcedc", "c4563dbe07b5fcc6ad7767521f8bd03e7b5b575c1a44ee9ee38ca2a7dc2b9199"},
	"adv-regress":  {"8f58606cb09674f733316fa83452f1e4d3af1aef2164a1aa487d969abad61d0f", "65c59405dbfaa31523de7a9a4581ae66d416aae43306bcd3bd34cb96d201b9e0"},
}

// TestGoldenTraceWitness: profile images no longer carry the reference
// trace, so this pins it, and the analysis HDS makes of it, for every
// workload; for the golden workloads at batch sizes 1, 64 and 4096 too.
func TestGoldenTraceWitness(t *testing.T) {
	all := workloads.All()
	if len(all) != len(goldenTraces) {
		t.Fatalf("%d workloads, %d pinned traces", len(all), len(goldenTraces))
	}
	for _, w := range all {
		t.Run(w.Name, func(t *testing.T) {
			want, ok := goldenTraces[w.Name]
			if !ok {
				t.Fatal("no pinned trace")
			}
			batches := []int{0}
			if slices.ContainsFunc(goldens, func(g goldenWorkload) bool { return g.name == w.Name }) {
				batches = append(batches, 1, 64, 4096)
			}
			p := w.Build(w.TestScale)
			for _, batch := range batches {
				cfg := core.Config{ProfileBatchSize: batch}
				cfg.Profile.RecordTrace = true
				cfg.HDS.MaxGroups = w.MaxGroups
				prof, err := core.Profile(p, cfg)
				if err != nil {
					t.Fatalf("batch=%d: %v", batch, err)
				}
				res, err := core.AnalyzeHDS(prof, cfg)
				if err != nil {
					t.Fatalf("batch=%d: %v", batch, err)
				}
				if got := traceWitness(prof.Trace); got != want.trace {
					t.Errorf("batch=%d: trace witness = %s, want %s (%d refs)", batch, got, want.trace, prof.Trace.Len())
				}
				if got := analysisWitness(res); got != want.analysis {
					t.Errorf("batch=%d: analysis witness = %s, want %s (%d sets)", batch, got, want.analysis, len(res.Sets))
				}
			}
		})
	}
}

// traceWitness hashes a reference trace as HDS consumes it: each ref's
// serial in order, then each referenced serial with its allocation site
// and size in ascending serial order, all as little-endian uint32s.
func traceWitness(tr *profile.Trace) string {
	h := sha256.New()
	var b []byte
	referenced := map[uint32]bool{}
	for _, blk := range tr.Blocks() {
		for _, s := range blk {
			b = binary.LittleEndian.AppendUint32(b[:0], s)
			h.Write(b)
			referenced[s] = true
		}
	}
	objects := tr.Objects()
	for _, s := range slices.Sorted(maps.Keys(referenced)) {
		b = binary.LittleEndian.AppendUint32(b[:0], s)
		b = binary.LittleEndian.AppendUint32(b, uint32(objects[s].Site))
		b = binary.LittleEndian.AppendUint32(b, objects[s].Size)
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// analysisWitness hashes hds.Analyze's co-allocation sets (sites, benefit
// bits, stream count) in order, then its site table in ascending site
// order.
func analysisWitness(r *hds.Result) string {
	var b []byte
	for _, s := range r.Sets {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(s.Sites)))
		for _, site := range s.Sites {
			b = binary.LittleEndian.AppendUint32(b, uint32(site))
		}
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.Benefit))
		b = binary.LittleEndian.AppendUint32(b, uint32(s.Streams))
	}
	for _, site := range slices.Sorted(maps.Keys(r.SiteGroups)) {
		b = binary.LittleEndian.AppendUint32(b, uint32(site))
		b = binary.LittleEndian.AppendUint32(b, uint32(r.SiteGroups[site]))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
