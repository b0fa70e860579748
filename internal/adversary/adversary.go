// Package adversary generates allocation/free/write sequences hostile to
// HALO's grouping, in the spirit of Heelan et al.'s automatic heap-layout
// manipulation: a deterministic, seeded pseudo-random search over candidate
// workloads, scored by a fitness function over the heap layout (or the full
// profile→synthesis→rewrite→measure pipeline) that each candidate produces.
//
// A candidate is a Sequence: a phased program over a fixed set of object
// slots and allocation sites. Each phase replays a list of setup ops
// (alloc, free, write, read), then enters a steady-state loop touching a
// "hot" subset of the live slots and churning short-lived objects — the
// shape of a long-running server whose hot contexts can rotate between
// phases. Sequences are generated from a seed under validity invariants
// (never free a dead slot, never read an unwritten offset, never write out
// of bounds), so every candidate the search visits is a legal program.
//
// Discovered sequences flow out of the package in two forms: compiled to a
// first-class *isa.Program (Compile) that runs through the full pipeline
// like any SPEC-style workload, and flattened to a portable heap-op stream
// (HeapOps) that replays directly against the group allocator — the fuzz
// corpus format of internal/halloc's FuzzHalloc.
package adversary

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// OpKind is a setup-phase operation kind.
type OpKind uint8

// The setup-phase operations.
const (
	// OpAlloc allocates slot Slot from site Site (size = SiteSize[Site]).
	OpAlloc OpKind = iota
	// OpFree frees slot Slot.
	OpFree
	// OpWrite writes a deterministic word at [slot+Off].
	OpWrite
	// OpRead reads the word at [slot+Off] into the program checksum.
	OpRead
)

// Op is one setup operation.
type Op struct {
	Kind OpKind
	Slot int
	Site int   // OpAlloc only
	Off  int64 // OpWrite/OpRead only; 8-aligned, in bounds
}

// HotRef is one entry of a phase's steady-state access pattern. A zero
// Gate touches the slot every iteration; a positive Gate touches it only
// when the VM's seeded RNG draws 0 from [0,Gate) — the lever that makes
// training-run behaviour (profile seed) diverge from measurement-run
// behaviour (measure seeds), misleading the profile-driven grouping.
type HotRef struct {
	Slot int
	Gate int64
}

// ChurnRef allocates, touches and immediately frees one object from Site
// on every steady-state iteration: allocator churn that forces chunk reuse.
type ChurnRef struct {
	Site int
}

// Phase is one phase of a sequence: setup ops, then Loops×scale iterations
// of the steady-state loop over Hot and Churn.
type Phase struct {
	Ops   []Op
	Hot   []HotRef
	Churn []ChurnRef
	Loops int64 // steady-state iterations per unit of scale
}

// Sequence is one adversarial workload candidate.
type Sequence struct {
	Name  string
	Seed  uint64 // generation seed, for reproducing the candidate
	Slots int    // object slots (one pointer global each)
	Sites int    // distinct allocation sites (one wrapper function each)

	// SiteSize fixes the object size allocated at each site, as a real
	// allocation site allocates one type.
	SiteSize []int64

	Phases []Phase
}

// sizePalette is the pool of object sizes generation draws from. It spans
// the grouped range and crosses MaxGroupedSize (4 KiB) so some sites
// always forward to the fallback allocator.
var sizePalette = []int64{16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 2048, 4160}

// rng is a splitmix64 generator: the package's only randomness source, so
// every sequence is a pure function of its seed.
type rng struct{ s uint64 }

func newRng(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) pct(p int) bool { return r.intn(100) < p }

// deriveSeed mixes a base seed with an index, giving each search candidate
// an independent generation seed.
func deriveSeed(base uint64, i int) uint64 {
	r := rng{s: base ^ (uint64(i+1) * 0xA24BAED4963EE407)}
	return r.next()
}

// GenParams shapes random sequence generation.
type GenParams struct {
	Slots       int   // object slots (≤ 32; each costs a global)
	Sites       int   // allocation sites
	Phases      int   // phases
	OpsPerPhase int   // setup ops per phase
	HotRefs     int   // steady-state touches per iteration
	ChurnRefs   int   // short-lived allocations per iteration
	Loops       int64 // steady-state iterations per unit of scale
	Gates       bool  // allow RNG-gated hot refs
}

func (p GenParams) withDefaults() GenParams {
	if p.Slots == 0 {
		p.Slots = 24
	}
	if p.Sites == 0 {
		p.Sites = 8
	}
	if p.Phases == 0 {
		p.Phases = 1
	}
	if p.OpsPerPhase == 0 {
		p.OpsPerPhase = 120
	}
	if p.HotRefs == 0 {
		p.HotRefs = 10
	}
	if p.ChurnRefs == 0 {
		p.ChurnRefs = 2
	}
	if p.Loops == 0 {
		p.Loops = 6
	}
	return p
}

// slotState tracks generation-time validity: liveness, owning site, and
// which offsets hold defined data (the allocation wrapper defines offset 0
// at birth; writes define more).
type slotState struct {
	live    bool
	site    int
	written []int64
}

// Generate builds a random valid sequence from a seed. The same seed and
// params always produce the identical sequence.
func Generate(name string, seed uint64, p GenParams) Sequence {
	p = p.withDefaults()
	r := newRng(seed)
	s := Sequence{
		Name:     name,
		Seed:     seed,
		Slots:    p.Slots,
		Sites:    p.Sites,
		SiteSize: make([]int64, p.Sites),
	}
	for i := range s.SiteSize {
		s.SiteSize[i] = sizePalette[r.intn(len(sizePalette))]
	}
	slots := make([]slotState, p.Slots)

	liveSlots := func() []int {
		var out []int
		for i := range slots {
			if slots[i].live {
				out = append(out, i)
			}
		}
		return out
	}
	deadSlots := func() []int {
		var out []int
		for i := range slots {
			if !slots[i].live {
				out = append(out, i)
			}
		}
		return out
	}

	alloc := func(ops []Op, slot int) []Op {
		site := r.intn(p.Sites)
		slots[slot] = slotState{live: true, site: site, written: []int64{0}}
		return append(ops, Op{Kind: OpAlloc, Slot: slot, Site: site})
	}
	free := func(ops []Op, slot int) []Op {
		slots[slot] = slotState{}
		return append(ops, Op{Kind: OpFree, Slot: slot})
	}

	for pi := 0; pi < p.Phases; pi++ {
		var ph Phase
		for len(ph.Ops) < p.OpsPerPhase {
			live, dead := liveSlots(), deadSlots()
			switch k := r.intn(100); {
			case k < 38: // alloc
				if len(dead) == 0 {
					ph.Ops = free(ph.Ops, live[r.intn(len(live))])
					continue
				}
				ph.Ops = alloc(ph.Ops, dead[r.intn(len(dead))])
			case k < 58: // free
				if len(live) == 0 {
					ph.Ops = alloc(ph.Ops, dead[r.intn(len(dead))])
					continue
				}
				ph.Ops = free(ph.Ops, live[r.intn(len(live))])
			case k < 72: // write a fresh in-bounds offset
				if len(live) == 0 {
					ph.Ops = alloc(ph.Ops, dead[r.intn(len(dead))])
					continue
				}
				slot := live[r.intn(len(live))]
				size := s.SiteSize[slots[slot].site]
				words := size / 8
				if words == 0 {
					continue
				}
				off := 8 * int64(r.intn(int(words)))
				slots[slot].written = append(slots[slot].written, off)
				ph.Ops = append(ph.Ops, Op{Kind: OpWrite, Slot: slot, Off: off})
			case k < 85: // read one written offset
				if len(live) == 0 {
					ph.Ops = alloc(ph.Ops, dead[r.intn(len(dead))])
					continue
				}
				slot := live[r.intn(len(live))]
				w := slots[slot].written
				ph.Ops = append(ph.Ops, Op{Kind: OpRead, Slot: slot, Off: w[r.intn(len(w))]})
			default: // same-site read burst: the sweep access pattern that
				// favours size-class co-location over grouped interleaving
				if len(live) == 0 {
					ph.Ops = alloc(ph.Ops, dead[r.intn(len(dead))])
					continue
				}
				site := slots[live[r.intn(len(live))]].site
				for _, sl := range live {
					if slots[sl].site == site {
						ph.Ops = append(ph.Ops, Op{Kind: OpRead, Slot: sl, Off: 0})
					}
				}
			}
		}

		// Hot set: a subset of the slots live after this phase's setup.
		live := liveSlots()
		for len(live) < p.HotRefs {
			dead := deadSlots()
			if len(dead) == 0 {
				break
			}
			ph.Ops = alloc(ph.Ops, dead[r.intn(len(dead))])
			live = liveSlots()
		}
		perm := make([]int, len(live))
		copy(perm, live)
		for i := len(perm) - 1; i > 0; i-- {
			j := r.intn(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		n := p.HotRefs
		if n > len(perm) {
			n = len(perm)
		}
		chosen := perm[:n]
		if r.pct(50) {
			// Cluster the hot pattern by site: each iteration sweeps one
			// site's objects back to back instead of interleaving sites.
			sortBySite(chosen, slots)
		}
		for _, sl := range chosen {
			gate := int64(0)
			if p.Gates && r.pct(30) {
				gate = int64(2 + r.intn(3))
			}
			ph.Hot = append(ph.Hot, HotRef{Slot: sl, Gate: gate})
		}
		for i := 0; i < p.ChurnRefs; i++ {
			ph.Churn = append(ph.Churn, ChurnRef{Site: r.intn(p.Sites)})
		}
		ph.Loops = p.Loops
		s.Phases = append(s.Phases, ph)
	}
	return s
}

// sortBySite stably sorts slot indices by their owning site (insertion
// sort: the lists are tiny and determinism matters more than speed).
func sortBySite(slots []int, st []slotState) {
	for i := 1; i < len(slots); i++ {
		for j := i; j > 0 && st[slots[j-1]].site > st[slots[j]].site; j-- {
			slots[j-1], slots[j] = slots[j], slots[j-1]
		}
	}
}

// LiveAtEnd simulates the sequence's ops and returns the slots still live
// after the final phase, in slot order. The compiled program's epilogue
// sweeps exactly these.
func (s *Sequence) LiveAtEnd() []int {
	live := make([]bool, s.Slots)
	for _, ph := range s.Phases {
		for _, op := range ph.Ops {
			switch op.Kind {
			case OpAlloc:
				live[op.Slot] = true
			case OpFree:
				live[op.Slot] = false
			}
		}
	}
	var out []int
	for i, l := range live {
		if l {
			out = append(out, i)
		}
	}
	return out
}

// Fingerprint is a canonical sha256 over everything that defines the
// sequence. Equal fingerprints mean byte-identical compiled programs; the
// search-determinism tests pin it.
func (s *Sequence) Fingerprint() string {
	h := sha256.New()
	var buf [8]byte
	wr := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	h.Write([]byte(s.Name))
	wr(int64(s.Slots))
	wr(int64(s.Sites))
	for _, sz := range s.SiteSize {
		wr(sz)
	}
	for _, ph := range s.Phases {
		wr(int64(len(ph.Ops)))
		for _, op := range ph.Ops {
			wr(int64(op.Kind))
			wr(int64(op.Slot))
			wr(int64(op.Site))
			wr(op.Off)
		}
		for _, hr := range ph.Hot {
			wr(int64(hr.Slot))
			wr(hr.Gate)
		}
		for _, c := range ph.Churn {
			wr(int64(c.Site))
		}
		wr(ph.Loops)
	}
	return hex.EncodeToString(h.Sum(nil))
}
