package hds

import (
	"math"
	"sort"

	"halo/internal/isa"
	"halo/internal/pool"
)

// CoallocSet is a candidate co-allocation policy derived from one or more
// hot data streams: the set of allocation call sites whose objects the
// stream interleaves, weighted by the projected cache-line savings of
// packing those objects contiguously.
type CoallocSet struct {
	Sites   []isa.Addr
	Benefit float64
	Streams int // streams contributing to this set
}

// ObjectInfo locates an object for benefit analysis.
type ObjectInfo struct {
	Site isa.Addr
	Size uint32
}

const lineSize = 64

// Objects is a dense object-information table indexed by allocation
// serial, the form the trace walk in Analyze produces.
type Objects struct {
	info    []ObjectInfo
	present []bool
}

// NewObjects returns a table sized for serials in [0, maxSerial].
func NewObjects(maxSerial int64) *Objects {
	n := maxSerial + 1
	if n < 0 {
		n = 0
	}
	return &Objects{info: make([]ObjectInfo, n), present: make([]bool, n)}
}

// Add registers an object's allocation site and size.
func (o *Objects) Add(serial int64, info ObjectInfo) {
	if serial < 0 || serial >= int64(len(o.info)) {
		return
	}
	o.info[serial] = info
	o.present[serial] = true
}

// Lookup returns an object's info, if known.
func (o *Objects) Lookup(serial int64) (ObjectInfo, bool) {
	if serial < 0 || serial >= int64(len(o.info)) || !o.present[serial] {
		return ObjectInfo{}, false
	}
	return o.info[serial], true
}

// streamSet is one stream's per-stage result: a span of sorted site ranks
// in its chunk's backing array plus the projected benefit.
type streamSet struct {
	off, n  int32
	benefit float64
}

// BuildSets converts hot data streams into co-allocation sets. Each stream
// projects the miss reduction of packing its objects into contiguous lines
// versus leaving each on separate lines, scaled by the stream's frequency
// (the benefit model of the original paper, simplified to line counts).
// Streams inducing identical site sets merge, accumulating benefit.
//
// The per-stream benefit analysis fans out over a bounded worker pool.
// Streams are independent (the paper's pipeline is embarrassingly parallel
// per stream), so each worker owns a contiguous chunk with chunk-local
// scratch and results are aggregated serially in stream order afterwards —
// output is bit-identical at any worker count. workers <= 0 selects one
// worker per CPU, 1 forces the serial path.
func BuildSets(streams []Stream, objects *Objects, workers int) []CoallocSet {
	if len(streams) == 0 {
		return nil
	}
	// Intern every known allocation site, ranked in ascending address
	// order so rank order and address order coincide.
	siteRank, rankAddr := rankSites(objects)

	if workers <= 0 {
		workers = pool.DefaultWorkers()
	}
	chunks := workers
	if chunks > len(streams) {
		chunks = len(streams)
	}
	per := (len(streams) + chunks - 1) / chunks
	type chunkResult struct {
		sets []streamSet // indexed by stream offset within the chunk
		ids  []int32     // backing storage for the spans
	}
	results := make([]chunkResult, chunks)
	pool.Map(chunks, workers, func(ci int) error {
		lo := ci * per
		hi := lo + per
		if hi > len(streams) {
			hi = len(streams)
		}
		res := chunkResult{sets: make([]streamSet, hi-lo)}
		stamp := make([]int32, len(rankAddr))
		scratch := make([]int32, 0, 16)
		for si := lo; si < hi; si++ {
			st := &streams[si]
			gen := int32(si + 1)
			scratch = scratch[:0]
			var packedBytes uint64
			var sepFootprint uint64 // each object's line-rounded footprint
			known := 0
			for _, obj := range st.Objects {
				info, ok := objects.Lookup(obj)
				if !ok {
					continue
				}
				known++
				r := siteRank[info.Site]
				if stamp[r] != gen {
					stamp[r] = gen
					scratch = append(scratch, r)
				}
				packedBytes += uint64(info.Size)
				sepFootprint += uint64((info.Size+lineSize-1)/lineSize) * lineSize
			}
			if known < 2 || len(scratch) == 0 {
				continue
			}
			if sepFootprint <= packedBytes {
				continue // packing saves nothing
			}
			sort.Slice(scratch, func(i, j int) bool { return scratch[i] < scratch[j] })
			// Projected lines saved per traversal: the separate layout
			// rounds every object to whole lines; the packed layout shares
			// them.
			res.sets[si-lo] = streamSet{
				off:     int32(len(res.ids)),
				n:       int32(len(scratch)),
				benefit: float64(st.Freq) * float64(sepFootprint-packedBytes) / lineSize,
			}
			res.ids = append(res.ids, scratch...)
		}
		results[ci] = res
		return nil
	})

	// Aggregate in stream order: identical site sets merge through the
	// interner, so float accumulation order matches the serial walk.
	var in setInterner
	type agg struct {
		benefit float64
		streams int
	}
	var aggs []agg
	for ci := range results {
		res := &results[ci]
		for i := range res.sets {
			ss := &res.sets[i]
			if ss.n == 0 {
				continue
			}
			ids := res.ids[ss.off : ss.off+ss.n]
			id := in.intern(ids)
			if id == len(aggs) {
				aggs = append(aggs, agg{})
			}
			aggs[id].benefit += ss.benefit
			aggs[id].streams++
		}
	}

	out := make([]CoallocSet, 0, len(aggs))
	for id, a := range aggs {
		ids := in.set(id)
		sites := make([]isa.Addr, len(ids))
		for i, r := range ids {
			sites[i] = rankAddr[r]
		}
		out = append(out, CoallocSet{Sites: sites, Benefit: a.benefit, Streams: a.streams})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Benefit != out[j].Benefit {
			return out[i].Benefit > out[j].Benefit
		}
		return lessSitesLE(out[i].Sites, out[j].Sites)
	})
	return out
}

// rankSites interns every site in the object table, assigning dense ranks
// in ascending address order.
func rankSites(objects *Objects) (map[isa.Addr]int32, []isa.Addr) {
	seen := make(map[isa.Addr]int32)
	for serial, ok := range objects.present {
		if ok {
			seen[objects.info[serial].Site] = 0
		}
	}
	addrs := make([]isa.Addr, 0, len(seen))
	for s := range seen {
		addrs = append(addrs, s)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for r, s := range addrs {
		seen[s] = int32(r)
	}
	return seen, addrs
}

// lessSitesLE orders site sets by the little-endian byte encoding of their
// elements — the comparison the historical string-keyed implementation
// used, preserved so tie-broken output stays bit-identical.
func lessSitesLE(a, b []isa.Addr) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] == b[i] {
			continue
		}
		x, y := a[i], b[i]
		for k := 0; k < 32; k += 8 {
			xb, yb := byte(x>>k), byte(y>>k)
			if xb != yb {
				return xb < yb
			}
		}
	}
	return len(a) < len(b)
}

// setInterner deduplicates sorted site-rank sequences, handing out dense
// set ids in first-seen order. Sequences are stored in one backing array
// and addressed by spans; the hash table is open-addressing over the
// sequence content, so interning allocates only when a new set appears.
type setInterner struct {
	backing []int32
	offs    []int32 // offs[id] .. offs[id+1] spans backing
	table   []int32 // set id + 1; 0 = empty
}

// intern returns the id of the sequence, registering it on first sight.
// A fresh id always equals the number of previously interned sets.
func (in *setInterner) intern(ids []int32) int {
	if len(in.table) == 0 {
		in.table = make([]int32, 64)
		in.offs = append(in.offs, 0)
	}
	n := len(in.offs) - 1 // interned sets
	if (n+1)*4 >= len(in.table)*3 {
		in.grow()
	}
	mask := uint64(len(in.table) - 1)
	i := hashIDs(ids) & mask
	for in.table[i] != 0 {
		id := int(in.table[i] - 1)
		if in.equal(id, ids) {
			return id
		}
		i = (i + 1) & mask
	}
	in.backing = append(in.backing, ids...)
	in.offs = append(in.offs, int32(len(in.backing)))
	in.table[i] = int32(n + 1)
	return n
}

// set returns the interned sequence for an id.
func (in *setInterner) set(id int) []int32 {
	return in.backing[in.offs[id]:in.offs[id+1]]
}

func (in *setInterner) equal(id int, ids []int32) bool {
	s := in.set(id)
	if len(s) != len(ids) {
		return false
	}
	for i := range s {
		if s[i] != ids[i] {
			return false
		}
	}
	return true
}

func (in *setInterner) grow() {
	table := make([]int32, len(in.table)*2)
	mask := uint64(len(table) - 1)
	for id := 0; id < len(in.offs)-1; id++ {
		i := hashIDs(in.set(id)) & mask
		for table[i] != 0 {
			i = (i + 1) & mask
		}
		table[i] = int32(id + 1)
	}
	in.table = table
}

// hashIDs is an FNV-1a style hash over the sequence.
func hashIDs(ids []int32) uint64 {
	h := uint64(1469598103934665603)
	for _, v := range ids {
		h ^= uint64(uint32(v))
		h *= 1099511628211
	}
	return h
}

// PackSets selects a non-overlapping family of co-allocation sets using
// Halldórsson's greedy approximation for weighted set packing: candidates
// are taken in decreasing benefit/sqrt(|set|) order, skipping any whose
// sites are already claimed. At most maxGroups sets are selected
// (the artifact's --max-groups, 4 for roms).
func PackSets(sets []CoallocSet, maxGroups int) []CoallocSet {
	if maxGroups <= 0 {
		maxGroups = 32
	}
	ordered := append([]CoallocSet(nil), sets...)
	sort.SliceStable(ordered, func(i, j int) bool {
		wi := ordered[i].Benefit / math.Sqrt(float64(len(ordered[i].Sites)))
		wj := ordered[j].Benefit / math.Sqrt(float64(len(ordered[j].Sites)))
		return wi > wj
	})
	// Dense claim mask over the distinct sites, in place of a per-call
	// map[isa.Addr]bool.
	var all []isa.Addr
	for _, s := range sets {
		all = append(all, s.Sites...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	all = dedupAddrs(all)
	rank := func(site isa.Addr) int {
		return sort.Search(len(all), func(i int) bool { return all[i] >= site })
	}
	claimed := make([]bool, len(all))
	var out []CoallocSet
	for _, s := range ordered {
		if len(out) >= maxGroups {
			break
		}
		conflict := false
		for _, site := range s.Sites {
			if claimed[rank(site)] {
				conflict = true
				break
			}
		}
		if conflict {
			continue
		}
		for _, site := range s.Sites {
			claimed[rank(site)] = true
		}
		out = append(out, s)
	}
	return out
}

func dedupAddrs(sorted []isa.Addr) []isa.Addr {
	out := sorted[:0]
	for i, s := range sorted {
		if i == 0 || s != sorted[i-1] {
			out = append(out, s)
		}
	}
	return out
}
