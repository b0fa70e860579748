package identify

import (
	"testing"

	"halo/internal/affinity"
	"halo/internal/group"
	"halo/internal/isa"
	"halo/internal/profile"
)

// ctx builds a context with the given chain of call sites.
func ctx(id affinity.Ctx, sites ...isa.Addr) *profile.Context {
	c := &profile.Context{ID: id}
	for _, s := range sites {
		c.Chain = append(c.Chain, profile.ChainEntry{Fn: int32(s.FuncIndex()), Site: s})
	}
	return c
}

func site(fn, pc int) isa.Addr { return isa.MakeAddr(fn, pc) }

func TestBuildDistinguishesByUniqueSite(t *testing.T) {
	// Member passes through site A; the conflicting context does not.
	a, b, shared := site(1, 1), site(2, 2), site(3, 3)
	contexts := []*profile.Context{
		ctx(0, a, shared),
		ctx(1, b, shared),
	}
	groups := []group.Group{{ID: 0, Members: []affinity.Ctx{0}, Accesses: 100}}
	res := Build(groups, contexts)
	if len(res.Selectors) != 1 {
		t.Fatalf("selectors = %d", len(res.Selectors))
	}
	sel := res.Selectors[0]
	if len(sel.Conj) != 1 {
		t.Fatalf("conjunctions = %d", len(sel.Conj))
	}
	// The selector must match the member and not the conflict.
	if MatchContext(res.Selectors, contexts[0]) != 0 {
		t.Fatal("selector misses its member")
	}
	if MatchContext(res.Selectors, contexts[1]) != -1 {
		t.Fatal("selector matches the conflicting context")
	}
	if res.Residual != 0 {
		t.Fatalf("residual = %d", res.Residual)
	}
}

func TestBuildNeedsConjunction(t *testing.T) {
	// No single site separates the member from both conflicts, but the
	// pair (a AND b) does.
	a, b := site(1, 1), site(2, 2)
	contexts := []*profile.Context{
		ctx(0, a, b), // member
		ctx(1, a),    // conflict sharing a
		ctx(2, b),    // conflict sharing b
	}
	groups := []group.Group{{ID: 0, Members: []affinity.Ctx{0}, Accesses: 10}}
	res := Build(groups, contexts)
	if got := MatchContext(res.Selectors, contexts[0]); got != 0 {
		t.Fatalf("member matched group %d", got)
	}
	if MatchContext(res.Selectors, contexts[1]) != -1 ||
		MatchContext(res.Selectors, contexts[2]) != -1 {
		t.Fatal("conflict matched")
	}
	if len(res.Selectors[0].Conj[0]) != 2 {
		t.Fatalf("conjunction = %v, want 2 sites", res.Selectors[0].Conj[0])
	}
}

func TestBuildPopularityOrder(t *testing.T) {
	a, b := site(1, 1), site(2, 2)
	contexts := []*profile.Context{
		ctx(0, a),
		ctx(1, b),
	}
	groups := []group.Group{
		{ID: 0, Members: []affinity.Ctx{0}, Accesses: 10},
		{ID: 1, Members: []affinity.Ctx{1}, Accesses: 1000},
	}
	res := Build(groups, contexts)
	if res.Selectors[0].Group != 1 {
		t.Fatalf("most popular group not first: %v", res.Selectors)
	}
}

func TestBuildTieBreakPrefersStackBottom(t *testing.T) {
	// Both sites eliminate all conflicts equally (there are none); the
	// site lower in the stack (earlier in the chain) must be chosen.
	lo, hi := site(1, 1), site(2, 2)
	contexts := []*profile.Context{
		ctx(0, lo, hi),
	}
	groups := []group.Group{{ID: 0, Members: []affinity.Ctx{0}, Accesses: 5}}
	res := Build(groups, contexts)
	conj := res.Selectors[0].Conj[0]
	if len(conj) != 1 || conj[0] != lo {
		t.Fatalf("conjunction = %v, want the stack-bottom site %v", conj, lo)
	}
}

func TestBuildIgnoresProcessedGroups(t *testing.T) {
	// Contexts in already-processed (more popular) groups are not
	// conflicts for later groups.
	shared := site(1, 1)
	extra := site(2, 2)
	contexts := []*profile.Context{
		ctx(0, shared),        // popular group
		ctx(1, shared, extra), // less popular group, overlapping chain
	}
	groups := []group.Group{
		{ID: 0, Members: []affinity.Ctx{0}, Accesses: 1000},
		{ID: 1, Members: []affinity.Ctx{1}, Accesses: 10},
	}
	res := Build(groups, contexts)
	if len(res.Selectors) != 2 {
		t.Fatalf("selectors = %d", len(res.Selectors))
	}
	// Priority evaluation: context 0 hits group 0 first even though its
	// chain is a subset of context 1's.
	if MatchContext(res.Selectors, contexts[0]) != 0 {
		t.Fatal("popular context mismatched")
	}
}

func TestBuildResidualConflicts(t *testing.T) {
	// Member and conflict have identical chains: no selector can
	// separate them, and the residual count must say so.
	s1, s2 := site(1, 1), site(2, 2)
	contexts := []*profile.Context{
		ctx(0, s1, s2),
		ctx(1, s1, s2),
	}
	groups := []group.Group{{ID: 0, Members: []affinity.Ctx{0}, Accesses: 10}}
	res := Build(groups, contexts)
	if res.Residual == 0 {
		t.Fatal("identical-chain conflict not reported as residual")
	}
	// The (imperfect) selector still matches the member.
	if MatchContext(res.Selectors, contexts[0]) != 0 {
		t.Fatal("member unmatched")
	}
}

func TestBuildSitesUnion(t *testing.T) {
	a, b, c := site(1, 1), site(2, 2), site(3, 3)
	contexts := []*profile.Context{
		ctx(0, a),
		ctx(1, b),
		ctx(2, c),
	}
	groups := []group.Group{
		{ID: 0, Members: []affinity.Ctx{0, 1}, Accesses: 100},
		{ID: 1, Members: []affinity.Ctx{2}, Accesses: 50},
	}
	res := Build(groups, contexts)
	if len(res.Sites) != 3 {
		t.Fatalf("sites = %v, want 3 distinct", res.Sites)
	}
	for i := 1; i < len(res.Sites); i++ {
		if res.Sites[i-1] >= res.Sites[i] {
			t.Fatal("sites not sorted")
		}
	}
}

func TestMultiMemberGroupDNF(t *testing.T) {
	// Two members with disjoint chains: the selector needs two
	// conjunctions (a DNF).
	a, b, other := site(1, 1), site(2, 2), site(3, 3)
	contexts := []*profile.Context{
		ctx(0, a),
		ctx(1, b),
		ctx(2, other),
	}
	groups := []group.Group{{ID: 0, Members: []affinity.Ctx{0, 1}, Accesses: 100}}
	res := Build(groups, contexts)
	if len(res.Selectors[0].Conj) != 2 {
		t.Fatalf("conjunctions = %d, want 2", len(res.Selectors[0].Conj))
	}
	if MatchContext(res.Selectors, contexts[0]) != 0 ||
		MatchContext(res.Selectors, contexts[1]) != 0 {
		t.Fatal("members unmatched")
	}
	if MatchContext(res.Selectors, contexts[2]) != -1 {
		t.Fatal("outsider matched")
	}
}

func TestSelectorString(t *testing.T) {
	s := Selector{Group: 3, Conj: [][]isa.Addr{{site(1, 1)}, {site(2, 2), site(3, 3)}}}
	str := s.String()
	if str == "" || len(str) < 10 {
		t.Fatalf("selector string = %q", str)
	}
}
