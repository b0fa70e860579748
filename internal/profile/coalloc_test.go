package profile

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"testing"

	"halo/internal/affinity"
	"halo/internal/alloc"
	"halo/internal/isa"
	"halo/internal/mem"
	"halo/internal/vm"
	"halo/internal/workloads"
)

// FuzzCoalloc checks the O(1) co-allocatability rule against a brute-force
// scan of the allocation sequence. Each input byte issues one allocation
// from an earlier context or from the next new one (at most eight), and
// every pair lo < hi is checked twice: when hi is the newest serial, as
// the affinity queue asks, and once the whole sequence is issued.
func FuzzCoalloc(f *testing.F) {
	f.Add([]byte{0, 1, 0})
	f.Add([]byte{0, 1, 2, 1, 0, 2, 2, 3})
	f.Add([]byte{7, 7, 7, 7})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 3, 1, 4, 1, 5, 9, 2, 6, 5})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 128 {
			data = data[:128]
		}
		p := New(&isa.Program{}, Config{})
		seq := []affinity.Ctx{affinity.NoCtx} // seq[s] issued serial s
		// interferes is the definition: some serial strictly between lo
		// and hi came from the context of lo or of hi.
		interferes := func(lo, hi uint64) bool {
			for s := lo + 1; s < hi; s++ {
				if seq[s] == seq[lo] || seq[s] == seq[hi] {
					return true
				}
			}
			return false
		}
		check := func(lo, hi uint64) {
			if got, want := p.Interferes(lo, hi), interferes(lo, hi); got != want {
				t.Fatalf("contexts %v: Interferes(%d, %d) = %v, want %v", seq[1:], lo, hi, got, want)
			}
		}
		contexts := 0
		for _, b := range data {
			c := affinity.Ctx(int(b) % min(contexts+1, 8))
			if int(c) == contexts {
				contexts++
			}
			seq = append(seq, c)
			hi := p.issue(c)
			if hi != uint64(len(seq)-1) {
				t.Fatalf("issued serial %d, want %d", hi, len(seq)-1)
			}
			for lo := uint64(1); lo < hi; lo++ {
				check(lo, hi)
			}
		}
		for hi := uint64(2); hi < uint64(len(seq)); hi++ {
			for lo := uint64(1); lo < hi; lo++ {
				check(lo, hi)
			}
		}
	})
}

// allocationOrder pins the order in which each test-scale golden workload
// allocates from its contexts, the profile images' only witness of it
// before the format dropped the per-context serial logs. Each hash is the
// sha256 of every context's serial log in context order, each log coded
// as its uvarint length followed by uvarint deltas (the first one from
// 0), recorded from the logs the profiler kept before the format change.
var allocationOrder = map[string]string{
	"povray":  "b1f32ac3e0f6559543cf330e4485aa3b47870c2835dac950ce2c7a5e66bd2dfb",
	"omnetpp": "1d3c83e3f50abd0bf505aadbb91495cccff4d399d5ece063d191fef7506a40fd",
}

// TestAllocationOrder rebuilds each context's serial log by walking the
// prev links back from its last serial, and checks the logs against the
// recorded hash.
func TestAllocationOrder(t *testing.T) {
	for name, want := range allocationOrder {
		t.Run(name, func(t *testing.T) {
			w := workloads.MustGet(name)
			prog := w.Build(w.TestScale)
			p := New(prog, Config{})
			m := mem.NewMemory()
			v := vm.New(prog, m, alloc.NewSizeSeg(mem.NewOS(m)), p, vm.Config{Seed: 7})
			if _, err := v.Run(); err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			var tmp [binary.MaxVarintLen64]byte
			uvarint := func(x uint64) { h.Write(tmp[:binary.PutUvarint(tmp[:], x)]) }
			for _, c := range p.contexts.list {
				var log []uint64
				for s := p.last[c.ID]; s != 0; s = p.links[s].prev {
					log = append(log, s)
				}
				if uint64(len(log)) != c.Allocs {
					t.Fatalf("ctx%d: %d serials linked, %d allocations", c.ID, len(log), c.Allocs)
				}
				slices.Reverse(log)
				uvarint(uint64(len(log)))
				prev := uint64(0)
				for _, s := range log {
					uvarint(s - prev)
					prev = s
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != want {
				t.Errorf("allocation order hash = %s, want %s", got, want)
			}
		})
	}
}
