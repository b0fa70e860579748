package hds

import (
	"encoding/binary"
	"math"
	"slices"
	"sort"

	"halo/internal/isa"
	"halo/internal/profile"
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

const lineSize = 64

// BuildSets converts hot data streams into co-allocation sets. Each stream
// projects the miss reduction of packing its objects into contiguous lines
// versus leaving each on separate lines, scaled by the stream's frequency
// (the benefit model of the original paper, simplified to line counts).
// Streams inducing identical site sets merge, accumulating benefit in
// stream order. objects is indexed by allocation serial, as
// profile.Trace.Objects returns it; a zero Size marks a serial with no
// object.
func BuildSets(streams []Stream, objects []profile.ObjectInfo) []CoallocSet {
	if len(streams) == 0 {
		return nil
	}
	// Intern every known allocation site, ranked in ascending address
	// order so rank order and address order coincide.
	siteRank, rankAddr := rankSites(objects)

	stamp := make([]int32, len(rankAddr)) // stream generation that last saw a rank
	ranks := make([]int32, 0, 16)
	var key []byte
	setOf := make(map[string]int) // sorted site-rank sequence -> index in out
	var out []CoallocSet
	for si := range streams {
		st := &streams[si]
		gen := int32(si + 1)
		ranks = ranks[:0]
		var packedBytes uint64
		var sepFootprint uint64 // each object's line-rounded footprint
		known := 0
		for _, obj := range st.Objects {
			if obj < 0 || obj >= int64(len(objects)) || objects[obj].Size == 0 {
				continue // no object recorded under this serial
			}
			info := objects[obj]
			known++
			r := siteRank[info.Site]
			if stamp[r] != gen {
				stamp[r] = gen
				ranks = append(ranks, r)
			}
			packedBytes += uint64(info.Size)
			sepFootprint += uint64((info.Size+lineSize-1)/lineSize) * lineSize
		}
		if known < 2 || len(ranks) == 0 {
			continue
		}
		if sepFootprint <= packedBytes {
			continue // packing saves nothing
		}
		slices.Sort(ranks)
		key = key[:0]
		for _, r := range ranks {
			key = binary.LittleEndian.AppendUint32(key, uint32(r))
		}
		k, ok := setOf[string(key)]
		if !ok {
			k = len(out)
			setOf[string(key)] = k
			sites := make([]isa.Addr, len(ranks))
			for i, r := range ranks {
				sites[i] = rankAddr[r]
			}
			out = append(out, CoallocSet{Sites: sites})
		}
		// Projected lines saved per traversal: the separate layout rounds
		// every object to whole lines; the packed layout shares them.
		out[k].Benefit += float64(st.Freq) * float64(sepFootprint-packedBytes) / lineSize
		out[k].Streams++
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
func rankSites(objects []profile.ObjectInfo) (map[isa.Addr]int32, []isa.Addr) {
	seen := make(map[isa.Addr]int32)
	for _, o := range objects {
		if o.Size != 0 {
			seen[o.Site] = 0
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
