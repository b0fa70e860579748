// Pipeline-facing profstore tests. These live in the external test
// package because internal/core imports profstore (for ProfileN's merge),
// so the in-package tests cannot import core without a cycle.
package profstore_test

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"

	"halo/internal/core"
	"halo/internal/policy"
	"halo/internal/profile"
	"halo/internal/profstore"
	"halo/internal/workloads"
)

func pipelineProfile(t testing.TB, name string, seed uint64) *profile.Profile {
	t.Helper()
	w := workloads.MustGet(name)
	p := w.Build(w.TestScale)
	prof, err := core.Profile(p, core.Config{ProfileSeed: seed})
	if err != nil {
		t.Fatalf("profiling %s: %v", name, err)
	}
	return prof
}

// TestMergedProfileOptimizes drives a merged multi-seed profile through the
// standard OptimizeFromProfile path and checks the result is deterministic.
func TestMergedProfileOptimizes(t *testing.T) {
	w := workloads.MustGet("art")
	p := w.Build(w.TestScale)
	a := pipelineProfile(t, "art", 3)
	b := pipelineProfile(t, "art", 5)

	var reports []string
	for i := 0; i < 2; i++ {
		m, err := profstore.Merge(a, b)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := core.OptimizeFromProfile(p, m, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if len(opt.Groups) == 0 || len(opt.BitSelectors) == 0 {
			t.Fatalf("merged profile produced no policy: %d groups, %d selectors",
				len(opt.Groups), len(opt.BitSelectors))
		}
		reports = append(reports, opt.GroupReport())
	}
	if reports[0] != reports[1] {
		t.Fatalf("merged optimization not deterministic:\n%s\nvs\n%s", reports[0], reports[1])
	}
}

// TestEveryProfileShapeOptimizesAlike: a profile holds only what its run
// observed, however it arrived, and synthesis does its own filtering. So a
// fresh profile, its decoded image and a one-input merge of that image
// must all give byte-identical rewritten binaries and policies.
func TestEveryProfileShapeOptimizesAlike(t *testing.T) {
	w := workloads.MustGet("art")
	p := w.Build(w.TestScale)
	fresh := pipelineProfile(t, "art", 7)
	img, err := profstore.Encode(fresh)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := profstore.Decode(img)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := profstore.Merge(decoded)
	if err != nil {
		t.Fatal(err)
	}
	var wantBin, wantPol []byte
	for i, prof := range []*profile.Profile{fresh, decoded, merged} {
		opt, err := core.OptimizeFromProfile(p, prof, core.Config{})
		if err != nil {
			t.Fatalf("shape %d: %v", i, err)
		}
		bin, err := opt.Rewrite.Prog.Encode()
		if err != nil {
			t.Fatal(err)
		}
		pol, err := json.Marshal(policy.New(opt, policy.Halloc{}))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if len(opt.BitSelectors) == 0 {
				t.Fatal("fresh profile gave no selectors; the comparison would be vacuous")
			}
			wantBin, wantPol = bin, pol
		} else if !bytes.Equal(bin, wantBin) || !bytes.Equal(pol, wantPol) {
			t.Errorf("shape %d (1 decoded, 2 merged) optimises differently from the fresh profile", i)
		}
	}
}

// TestProfileNWorkerInvariance checks the concurrent multi-seed training
// path end to end: ProfileN must produce byte-identical profile images at
// any worker-pool width (set through GOMAXPROCS), and must match the
// hand-rolled serial profile-then-merge equivalent.
func TestProfileNWorkerInvariance(t *testing.T) {
	w := workloads.MustGet("art")
	p := w.Build(w.TestScale)
	cfg := core.Config{ProfileSeed: 3}

	manual, err := profstore.Merge(
		pipelineProfile(t, "art", 3),
		pipelineProfile(t, "art", 4),
		pipelineProfile(t, "art", 5),
	)
	if err != nil {
		t.Fatal(err)
	}
	wantImg, err := profstore.Encode(manual)
	if err != nil {
		t.Fatal(err)
	}

	for _, procs := range []int{1, 2, 4, 8} {
		prev := runtime.GOMAXPROCS(procs)
		prof, err := core.ProfileN(p, cfg, 3)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		img, err := profstore.Encode(prof)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if !bytes.Equal(img, wantImg) {
			t.Fatalf("GOMAXPROCS=%d: ProfileN image differs from serial merge (%d vs %d bytes)",
				procs, len(img), len(wantImg))
		}
	}
}
