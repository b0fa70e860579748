// Package group implements HALO's context-grouping stage (§4.2): the greedy
// clustering algorithm of Figure 6, driven by the weighted-graph-density
// score of Figure 7 and the merge-benefit function of Figure 8.
package group

import (
	"fmt"
	"sort"

	"halo/internal/affinity"
)

// DefaultCoverage is the paper's node-filter fraction (§4.1): the share of
// all observed accesses the filtered affinity graph keeps.
const DefaultCoverage = 0.90

// Params configures grouping. Zero values take the paper's settings.
type Params struct {
	// Coverage is the share of accesses Filter keeps. Default 0.90.
	Coverage float64
	// MinWeight drops edges lighter than this before grouping.
	MinWeight uint64
	// MaxGroupMembers bounds group growth (Figure 6). Default 16.
	MaxGroupMembers int
	// MergeTol is T in Figure 8, the slack that permits merges whose
	// combined score is fractionally lower. Default 0.05 (§4.2).
	MergeTol float64
	// GroupThreshold is gthresh: a group is kept only if its induced
	// weight is at least TotalAccesses*GroupThreshold. Default 0.0005.
	GroupThreshold float64
	// MaxGroups bounds the number of groups formed (the artifact runs
	// roms with --max-groups 4). Default 32.
	MaxGroups int
}

func (p Params) withDefaults() Params {
	if p.MaxGroupMembers == 0 {
		p.MaxGroupMembers = 16
	}
	if p.MergeTol == 0 {
		p.MergeTol = 0.05
	}
	if p.GroupThreshold == 0 {
		p.GroupThreshold = 0.0005
	}
	if p.MaxGroups == 0 {
		p.MaxGroups = 32
	}
	return p
}

// Group is a set of allocation contexts to be co-located at runtime.
type Group struct {
	ID       int
	Members  []affinity.Ctx
	Weight   uint64 // induced edge weight, including loops
	Accesses uint64 // sum of member access counts ("popularity")
}

func (g Group) String() string {
	return fmt.Sprintf("group %d: %d members, weight %d, accesses %d", g.ID, len(g.Members), g.Weight, g.Accesses)
}

// Score computes s(G[nodes]) per Figure 7: the induced subgraph's total
// edge weight divided by (|L| + |V|(|V|-1)/2), where L is the set of
// positive-weight loop edges present. An empty denominator scores zero.
func Score(g *affinity.Graph, nodes []affinity.Ctx) float64 {
	var sum uint64
	loops := 0
	for i, u := range nodes {
		if w := g.Weight(u, u); w > 0 {
			sum += w
			loops++
		}
		for _, v := range nodes[i+1:] {
			sum += g.Weight(u, v)
		}
	}
	n := len(nodes)
	denom := float64(loops) + float64(n*(n-1))/2
	if denom == 0 {
		return 0
	}
	return float64(sum) / denom
}

// MergeBenefit computes m(A, {stranger}) per Figure 8: positive only when
// the union scores higher than both parts, up to the tolerance slack.
func MergeBenefit(g *affinity.Graph, group []affinity.Ctx, stranger affinity.Ctx, tol float64) float64 {
	return mergeBenefit(g, group, Score(g, group), stranger, tol, nil)
}

// mergeBenefit is MergeBenefit with the group's own score precomputed
// (it is invariant across a candidate scan) and caller-owned scratch for
// the union slice, so the grouping loop allocates and rescores nothing
// per candidate.
func mergeBenefit(g *affinity.Graph, group []affinity.Ctx, groupScore float64, stranger affinity.Ctx, tol float64, scratch []affinity.Ctx) float64 {
	single := [1]affinity.Ctx{stranger}
	sb := Score(g, single[:])
	union := append(append(scratch[:0], group...), stranger)
	sc := Score(g, union)
	max := groupScore
	if sb > max {
		max = sb
	}
	return sc - (1-tol)*max
}

// Filter is §4.1's noise reduction, the one place a raw affinity graph is
// cut down for grouping: the hottest contexts covering p.Coverage of all
// observed accesses, and the edges among them, stay. raw is only read.
func Filter(raw *affinity.Graph, p Params) *affinity.Graph {
	if p.Coverage == 0 {
		p.Coverage = DefaultCoverage
	}
	return raw.Filter(p.Coverage)
}

// Form partitions the graph's contexts into groups per Figure 6. The
// candidate set is kept as the graph's sorted node list plus a liveness
// mask, and the sorted edge list is computed once, so each round scans
// dense arrays instead of re-sorting maps; the visiting order — and thus
// the formed groups — is exactly the map-based implementation's.
func Form(g *affinity.Graph, p Params) []Group {
	p = p.withDefaults()
	g = g.Prune(p.MinWeight)

	nodes := g.Nodes() // ascending, the candidate visiting order
	edges := g.Edges() // ascending, the seed visiting order
	index := make(map[affinity.Ctx]int, len(nodes))
	for i, c := range nodes {
		index[c] = i
	}
	alive := make([]bool, len(nodes))
	for i := range alive {
		alive[i] = true
	}
	navail := len(nodes)
	// A group plus one candidate never exceeds the node count, so the
	// union scratch never regrows, whatever MaxGroupMembers asks for.
	scratch := make([]affinity.Ctx, 0, len(nodes))

	var groups []Group
	for navail > 0 && len(groups) < p.MaxGroups {
		seed, ok := strongestSeed(g, edges, index, alive)
		if !ok {
			break // no edges remain among available nodes
		}
		members := []affinity.Ctx{seed}
		alive[index[seed]] = false
		navail--

		// Grow the group around the seed: the candidate with the largest
		// merge benefit joins, the first in node order on ties.
		for len(members) < p.MaxGroupMembers {
			memberScore := Score(g, members)
			best, bestScore := -1, 0.0
			for i, cand := range nodes {
				if !alive[i] {
					continue
				}
				if b := mergeBenefit(g, members, memberScore, cand, p.MergeTol, scratch); b > bestScore {
					bestScore, best = b, i
				}
			}
			if best < 0 {
				break
			}
			members = append(members, nodes[best])
			alive[best] = false
			navail--
		}

		weight := inducedWeight(g, members)
		if float64(weight) >= float64(g.TotalAccesses())*p.GroupThreshold && len(members) > 0 {
			var accesses uint64
			for _, m := range members {
				accesses += g.Accesses(m)
			}
			sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
			groups = append(groups, Group{
				ID:       len(groups),
				Members:  members,
				Weight:   weight,
				Accesses: accesses,
			})
		}
	}
	return groups
}

// strongestSeed finds the strongest edge whose endpoints are both
// available and returns its hotter endpoint (Figure 6: "form a group
// around the hottest node in the strongest available edge"). edges is the
// graph's sorted edge list; ties keep the first edge in that order, as
// the map-based implementation did.
func strongestSeed(g *affinity.Graph, edges []affinity.EdgeKey, index map[affinity.Ctx]int, alive []bool) (affinity.Ctx, bool) {
	var (
		bestW    uint64
		bestEdge affinity.EdgeKey
		found    bool
	)
	for _, e := range edges {
		if !alive[index[e.U]] || !alive[index[e.V]] {
			continue
		}
		w := g.Weight(e.U, e.V)
		if w > bestW {
			bestW, bestEdge, found = w, e, true
		}
	}
	if !found {
		return affinity.NoCtx, false
	}
	u, v := bestEdge.U, bestEdge.V
	if g.Accesses(v) > g.Accesses(u) {
		return v, true
	}
	return u, true
}

// inducedWeight sums the edge weights within the member set, including
// loop edges.
func inducedWeight(g *affinity.Graph, members []affinity.Ctx) uint64 {
	var sum uint64
	for i, u := range members {
		sum += g.Weight(u, u)
		for _, v := range members[i+1:] {
			sum += g.Weight(u, v)
		}
	}
	return sum
}

// Assign writes group memberships back into a context table (any slice
// addressable by affinity.Ctx with a settable Group field is handled by
// the caller); it returns a map from context to group id for convenience.
func Assign(groups []Group) map[affinity.Ctx]int {
	m := make(map[affinity.Ctx]int)
	for _, g := range groups {
		for _, c := range g.Members {
			m[c] = g.ID
		}
	}
	return m
}
