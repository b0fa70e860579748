// Package identify implements HALO's group-identification stage (§4.3,
// Figure 10): it constructs, for each allocation group, a selector — a
// logical expression in disjunctive normal form over call sites — that
// distinguishes the group's members from all other allocation contexts
// using as few call sites as possible. The sites referenced by the
// selectors are the program points the post-link rewriter instruments, and
// the selectors themselves are evaluated by the specialised allocator
// against the group-state bit vector at runtime.
//
// The stage is laid out for synthesis throughput: "which contexts pass
// through site S" is precomputed as one bit vector per site (indexed by
// context), so Figure 10's conflict counting is a word-parallel
// AND-popcount instead of a chain walk per (context, site) pair.
package identify

import (
	"fmt"
	"sort"
	"strings"

	"halo/internal/bits"
	"halo/internal/group"
	"halo/internal/isa"
	"halo/internal/profile"
)

// Selector identifies members of one group: an OR of conjunctions, each
// conjunction the AND of "control flow has passed through this call site"
// conditions.
type Selector struct {
	Group int
	Conj  [][]isa.Addr
}

// String renders the selector.
func (s Selector) String() string {
	var parts []string
	for _, conj := range s.Conj {
		var sites []string
		for _, a := range conj {
			sites = append(sites, a.String())
		}
		parts = append(parts, "("+strings.Join(sites, " ∧ ")+")")
	}
	return fmt.Sprintf("group%d: %s", s.Group, strings.Join(parts, " ∨ "))
}

// Result carries the selectors and their instrumentation points.
type Result struct {
	// Selectors are ordered most-popular group first, which is also the
	// runtime evaluation priority.
	Selectors []Selector
	// Sites is the deduplicated union of call sites referenced by any
	// selector: the points of interest the rewriter instruments.
	Sites []isa.Addr
	// Residual counts group members for which no conflict-free
	// conjunction was found (the greedy algorithm accepted a selector
	// that still matches some unrelated contexts).
	Residual int
}

// maxConjSites bounds conjunction growth defensively; Figure 10's loop
// terminates when conflicts stop improving, which this backstops.
const maxConjSites = 16

// siteIndex is the precomputed per-site context-membership index.
type siteIndex struct {
	ids  map[isa.Addr]int
	vecs []*bits.Vec // vecs[id] bit i set: contexts[i] passes through site
}

// buildSiteIndex scans every context chain once, producing one context
// bitset per distinct call site.
func buildSiteIndex(contexts []*profile.Context) *siteIndex {
	idx := &siteIndex{ids: make(map[isa.Addr]int)}
	n := len(contexts)
	for i, c := range contexts {
		for _, e := range c.Chain {
			if e.Site == isa.NoAddr {
				continue
			}
			id, ok := idx.ids[e.Site]
			if !ok {
				id = len(idx.vecs)
				idx.ids[e.Site] = id
				idx.vecs = append(idx.vecs, bits.New(n))
			}
			idx.vecs[id].Set(i)
		}
	}
	return idx
}

// Build constructs selectors for the groups per Figure 10. contexts is the
// profile's context list, indexed by affinity.Ctx; group membership comes
// from groups alone, and neither argument is written.
func Build(groups []group.Group, contexts []*profile.Context) *Result {
	// Process groups from most to least popular.
	ordered := append([]group.Group(nil), groups...)
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].Accesses != ordered[j].Accesses {
			return ordered[i].Accesses > ordered[j].Accesses
		}
		return ordered[i].ID < ordered[j].ID
	})

	n := len(contexts)
	idx := buildSiteIndex(contexts)

	// eligible is the conflict universe for the group being built: every
	// context except those of the groups reached so far, this one
	// included.
	eligible := bits.New(n)
	eligible.SetAll()
	cur := bits.New(n) // scratch: the surviving-conflict set
	res := &Result{}
	siteSet := make(map[isa.Addr]bool)
	for _, g := range ordered {
		for _, m := range g.Members {
			eligible.Clear(int(m))
		}
		sel := Selector{Group: g.ID}
		for _, member := range g.Members {
			conj, conflicts := buildConjunction(contexts[member], idx, eligible, cur)
			if conj == nil {
				continue
			}
			if conflicts > 0 {
				res.Residual++
			}
			sel.Conj = append(sel.Conj, conj)
			for _, s := range conj {
				siteSet[s] = true
			}
		}
		if len(sel.Conj) > 0 {
			res.Selectors = append(res.Selectors, sel)
		}
	}
	res.Sites = make([]isa.Addr, 0, len(siteSet))
	for s := range siteSet {
		res.Sites = append(res.Sites, s)
	}
	sort.Slice(res.Sites, func(i, j int) bool { return res.Sites[i] < res.Sites[j] })
	return res
}

// buildConjunction builds the expression identifying one group member:
// repeatedly add the call site from the member's chain that minimises the
// number of surviving conflicting contexts, preferring sites lower in the
// stack on ties, until conflicts reach zero or stop improving. The
// surviving set is tracked as a bitset (cur), so each candidate's conflict
// count is one AND-popcount. Returns the expression and its final
// conflict count (the residual signal).
func buildConjunction(member *profile.Context, idx *siteIndex, eligible, cur *bits.Vec) ([]isa.Addr, int) {
	sites := member.Sites()
	if len(sites) == 0 {
		return nil, 0
	}
	var expr []isa.Addr
	conflicts := -1 // "infinity" sentinel
	cur.CopyFrom(eligible)
	count := cur.Count()

	for len(expr) < maxConjSites {
		// cur: non-ignored contexts matching the current expression. An
		// empty set means zero conflicts; one anchoring site is still
		// added so the selector has something to test at runtime.
		if count == 0 && len(expr) > 0 {
			break
		}
		// For each candidate site, how many conflicting contexts contain
		// it. Pick the minimum; ties go to the site lower in the member's
		// stack.
		bestSite, bestM, bestPos := isa.NoAddr, -1, -1
		for _, s := range sites {
			if contains(expr, s) {
				continue
			}
			m := cur.AndCount(idx.vecs[idx.ids[s]])
			pos := member.SitePos(s)
			if bestM < 0 || m < bestM || (m == bestM && pos < bestPos) {
				bestSite, bestM, bestPos = s, m, pos
			}
		}
		if bestSite == isa.NoAddr {
			break
		}
		// Add the new constraint only if it reduces conflicts.
		if conflicts >= 0 && bestM >= conflicts {
			break
		}
		expr = append(expr, bestSite)
		cur.And(idx.vecs[idx.ids[bestSite]])
		count = bestM
		conflicts = bestM
		if conflicts == 0 {
			break
		}
	}
	if len(expr) == 0 {
		// Degenerate: take the innermost site so the member is at least
		// approximately identified.
		s := sites[len(sites)-1]
		expr = []isa.Addr{s}
		conflicts = eligible.AndCount(idx.vecs[idx.ids[s]])
	}
	return expr, conflicts
}

// matchesAll reports whether the context's chain passes through every site.
func matchesAll(c *profile.Context, sites []isa.Addr) bool {
	for _, s := range sites {
		if !c.HasSite(s) {
			return false
		}
	}
	return true
}

func contains(sites []isa.Addr, s isa.Addr) bool {
	for _, x := range sites {
		if x == s {
			return true
		}
	}
	return false
}

// MatchContext evaluates the selectors against a context chain offline,
// returning the group of the first matching selector or -1. The measure
// harness uses it to validate selector quality against the profile.
func MatchContext(selectors []Selector, c *profile.Context) int {
	for _, sel := range selectors {
		for _, conj := range sel.Conj {
			if matchesAll(c, conj) {
				return sel.Group
			}
		}
	}
	return -1
}
