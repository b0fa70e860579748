package core

import (
	"crypto/sha256"
	"runtime"
	"testing"

	"halo/internal/pool/pooltest"
	"halo/internal/profstore"
	"halo/internal/workloads"
)

// TestProfileStagedMatchesInline: core.Profile gives the same profile
// image with the profiler inline (GOMAXPROCS 1: no helper in the budget)
// and staged on a pool helper (GOMAXPROCS 2), and the helper is back in
// the budget afterwards.
func TestProfileStagedMatchesInline(t *testing.T) {
	for _, name := range []string{"povray", "omnetpp"} {
		w := workloads.MustGet(name)
		p := w.Build(w.TestScale)
		for _, batch := range []int{0, 512} {
			var sums [2][sha256.Size]byte
			for i, procs := range []int{1, 2} {
				prev := runtime.GOMAXPROCS(procs)
				cfg := Config{ProfileBatchSize: batch}
				cfg.Profile.RecordTrace = true
				prof, err := Profile(p, cfg)
				if err == nil && procs > 1 {
					pooltest.RequireHelper(t)
				}
				runtime.GOMAXPROCS(prev)
				if err != nil {
					t.Fatal(err)
				}
				img, err := profstore.Encode(prof)
				if err != nil {
					t.Fatal(err)
				}
				sums[i] = sha256.Sum256(img)
			}
			if sums[0] != sums[1] {
				t.Fatalf("%s batch=%d: staged profile image sha256 %x, inline %x", name, batch, sums[1], sums[0])
			}
		}
	}
}
