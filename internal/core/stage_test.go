package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"runtime"
	"testing"

	"halo/internal/pool/pooltest"
	"halo/internal/profstore"
	"halo/internal/workloads"
)

// TestProfileStagedMatchesInline: core.Profile gives the same profile
// image and reference trace with the profiler inline (GOMAXPROCS 1: no
// helper in the budget) and staged on a pool helper (GOMAXPROCS 2), and
// the helper is back in the budget afterwards.
func TestProfileStagedMatchesInline(t *testing.T) {
	for _, name := range []string{"povray", "omnetpp"} {
		w := workloads.MustGet(name)
		p := w.Build(w.TestScale)
		for _, batch := range []int{0, 512} {
			var sums [2][]byte
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
				// The image holds no trace: hash the recorded serials and
				// the per-serial table after it.
				h := sha256.New()
				h.Write(img)
				for _, b := range prof.Trace.Blocks() {
					binary.Write(h, binary.LittleEndian, b)
				}
				binary.Write(h, binary.LittleEndian, prof.Trace.Objects())
				sums[i] = h.Sum(nil)
			}
			if !bytes.Equal(sums[0], sums[1]) {
				t.Fatalf("%s batch=%d: staged profile image and trace sha256 %x, inline %x", name, batch, sums[1], sums[0])
			}
		}
	}
}
