package group

import (
	"math"
	"runtime"
	"testing"

	"halo/internal/affinity"
)

// buildGraph constructs a graph from edge triples and access counts.
func buildGraph(accesses map[affinity.Ctx]uint64, edges map[[2]affinity.Ctx]uint64) *affinity.Graph {
	g := affinity.NewGraph()
	for c, n := range accesses {
		for i := uint64(0); i < n; i++ {
			g.AddAccess(c)
		}
	}
	for e, w := range edges {
		g.AddEdge(e[0], e[1], w)
	}
	return g
}

func TestScoreFormula(t *testing.T) {
	g := buildGraph(nil, map[[2]affinity.Ctx]uint64{
		{0, 1}: 10,
		{1, 2}: 6,
	})
	// s({0,1}) = 10 / (0 loops + 1 pair) = 10.
	if s := Score(g, []affinity.Ctx{0, 1}); s != 10 {
		t.Fatalf("score = %v, want 10", s)
	}
	// s({0,1,2}) = 16 / (0 + 3) = 5.333...
	if s := Score(g, []affinity.Ctx{0, 1, 2}); math.Abs(s-16.0/3) > 1e-9 {
		t.Fatalf("score = %v, want %v", s, 16.0/3)
	}
}

func TestScoreLoopHandling(t *testing.T) {
	g := buildGraph(nil, map[[2]affinity.Ctx]uint64{
		{0, 0}: 8,
		{0, 1}: 4,
	})
	// Singleton with loop: 8 / (1 + 0) = 8.
	if s := Score(g, []affinity.Ctx{0}); s != 8 {
		t.Fatalf("singleton loop score = %v, want 8", s)
	}
	// Singleton without loop: 0 (denominator empty).
	if s := Score(g, []affinity.Ctx{1}); s != 0 {
		t.Fatalf("singleton score = %v, want 0", s)
	}
	// Pair with one loop: (8+4) / (1 + 1) = 6.
	if s := Score(g, []affinity.Ctx{0, 1}); s != 6 {
		t.Fatalf("pair score = %v, want 6", s)
	}
}

func TestMergeBenefitRejectsWeakCandidates(t *testing.T) {
	// 0-1 strongly connected; 2 barely attached.
	g := buildGraph(nil, map[[2]affinity.Ctx]uint64{
		{0, 1}: 100,
		{1, 2}: 1,
	})
	if b := MergeBenefit(g, []affinity.Ctx{0, 1}, 2, 0.05); b > 0 {
		t.Fatalf("weak candidate accepted: benefit %v", b)
	}
}

func TestMergeBenefitToleranceSlack(t *testing.T) {
	// Merging drops the score slightly; tolerance should allow it.
	g := buildGraph(nil, map[[2]affinity.Ctx]uint64{
		{0, 1}: 100,
		{0, 2}: 49,
		{1, 2}: 49,
	})
	// s({0,1}) = 100; s({0,1,2}) = 198/3 = 66: below even 95% of 100,
	// so this merge must be rejected.
	if b := MergeBenefit(g, []affinity.Ctx{0, 1}, 2, 0.05); b > 0 {
		t.Fatalf("drop from 100 to 66 accepted: %v", b)
	}
	// With weights making the union score 97: within 5% slack.
	g2 := buildGraph(nil, map[[2]affinity.Ctx]uint64{
		{0, 1}: 100,
		{0, 2}: 95,
		{1, 2}: 96,
	})
	if b := MergeBenefit(g2, []affinity.Ctx{0, 1}, 2, 0.05); b <= 0 {
		t.Fatalf("within-tolerance merge rejected: %v", b)
	}
}

func TestFormGroupsTwoClusters(t *testing.T) {
	// Two tight pairs and an isolated node.
	g := buildGraph(
		map[affinity.Ctx]uint64{0: 100, 1: 90, 2: 80, 3: 70, 4: 5},
		map[[2]affinity.Ctx]uint64{
			{0, 1}: 1000,
			{2, 3}: 800,
			{1, 2}: 2, // weak cross edge
		},
	)
	groups := Form(g, Params{GroupThreshold: 0.0001})
	if len(groups) != 2 {
		t.Fatalf("groups = %d, want 2: %v", len(groups), groups)
	}
	members := map[affinity.Ctx]int{}
	for _, grp := range groups {
		for _, m := range grp.Members {
			members[m] = grp.ID
		}
	}
	if members[0] != members[1] {
		t.Fatal("0 and 1 not grouped together")
	}
	if members[2] != members[3] {
		t.Fatal("2 and 3 not grouped together")
	}
	if members[0] == members[2] {
		t.Fatal("weakly-linked clusters merged")
	}
	if _, grouped := members[4]; grouped {
		t.Fatal("isolated node grouped")
	}
}

func TestFormSeedsHottestEndpoint(t *testing.T) {
	g := buildGraph(
		map[affinity.Ctx]uint64{0: 10, 1: 500},
		map[[2]affinity.Ctx]uint64{{0, 1}: 100},
	)
	index := map[affinity.Ctx]int{0: 0, 1: 1}
	seed, ok := strongestSeed(g, g.Edges(), index, []bool{true, true})
	if !ok || seed != 1 {
		t.Fatalf("seed = %v (%v), want the hotter endpoint 1", seed, ok)
	}
	// With only the colder endpoint available, the edge no longer counts.
	if _, ok := strongestSeed(g, g.Edges(), index, []bool{true, false}); ok {
		t.Fatal("edge with unavailable endpoint used as seed")
	}
}

func TestFormRespectsMaxMembers(t *testing.T) {
	edges := map[[2]affinity.Ctx]uint64{}
	accesses := map[affinity.Ctx]uint64{}
	for i := affinity.Ctx(0); i < 8; i++ {
		accesses[i] = 100
		for j := i + 1; j < 8; j++ {
			edges[[2]affinity.Ctx{i, j}] = 50
		}
	}
	g := buildGraph(accesses, edges)
	groups := Form(g, Params{MaxGroupMembers: 3, GroupThreshold: 0.0001})
	for _, grp := range groups {
		if len(grp.Members) > 3 {
			t.Fatalf("group exceeds max members: %v", grp.Members)
		}
	}
}

func TestFormRespectsMaxGroups(t *testing.T) {
	edges := map[[2]affinity.Ctx]uint64{}
	for i := affinity.Ctx(0); i < 10; i += 2 {
		edges[[2]affinity.Ctx{i, i + 1}] = 100
	}
	g := buildGraph(nil, edges)
	groups := Form(g, Params{MaxGroups: 2, GroupThreshold: 0.0001})
	if len(groups) != 2 {
		t.Fatalf("groups = %d, want max 2", len(groups))
	}
}

func TestFormGroupThreshold(t *testing.T) {
	g := buildGraph(
		map[affinity.Ctx]uint64{0: 100000, 1: 100000, 2: 10, 3: 10},
		map[[2]affinity.Ctx]uint64{
			{0, 1}: 50000,
			{2, 3}: 2, // far below threshold
		},
	)
	groups := Form(g, Params{GroupThreshold: 0.001})
	if len(groups) != 1 {
		t.Fatalf("groups = %d, want 1 (weak group thresholded)", len(groups))
	}
}

func TestFormMinWeightPruning(t *testing.T) {
	g := buildGraph(
		map[affinity.Ctx]uint64{0: 10, 1: 10},
		map[[2]affinity.Ctx]uint64{{0, 1}: 3},
	)
	groups := Form(g, Params{MinWeight: 10, GroupThreshold: 0.0001})
	if len(groups) != 0 {
		t.Fatalf("pruned edge still produced groups: %v", groups)
	}
}

func TestFormDeterminism(t *testing.T) {
	g := buildGraph(
		map[affinity.Ctx]uint64{0: 5, 1: 5, 2: 5, 3: 5},
		map[[2]affinity.Ctx]uint64{{0, 1}: 10, {2, 3}: 10, {1, 2}: 10},
	)
	a := Form(g, Params{GroupThreshold: 0.0001})
	for i := 0; i < 10; i++ {
		b := Form(g, Params{GroupThreshold: 0.0001})
		if len(a) != len(b) {
			t.Fatal("nondeterministic group count")
		}
		for j := range a {
			if len(a[j].Members) != len(b[j].Members) {
				t.Fatal("nondeterministic membership")
			}
			for k := range a[j].Members {
				if a[j].Members[k] != b[j].Members[k] {
					t.Fatal("nondeterministic member order")
				}
			}
		}
	}
}

// TestFormUnboundedMembersAllocatesLittle: MaxGroupMembers is a bound,
// not a size, so an effectively unbounded setting on a tiny graph must
// cost what the graph costs.
func TestFormUnboundedMembersAllocatesLittle(t *testing.T) {
	g := buildGraph(
		map[affinity.Ctx]uint64{0: 5, 1: 5, 2: 5, 3: 5},
		map[[2]affinity.Ctx]uint64{{0, 1}: 10, {2, 3}: 10, {1, 2}: 10},
	)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	groups := Form(g, Params{MaxGroupMembers: math.MaxInt, GroupThreshold: 0.0001})
	runtime.ReadMemStats(&after)
	if len(groups) == 0 {
		t.Fatal("no groups formed")
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("Form allocated %d bytes on a 4-node graph, want < 1 MiB", d)
	}
}

func TestAssign(t *testing.T) {
	groups := []Group{
		{ID: 0, Members: []affinity.Ctx{1, 2}},
		{ID: 1, Members: []affinity.Ctx{5}},
	}
	m := Assign(groups)
	if m[1] != 0 || m[2] != 0 || m[5] != 1 {
		t.Fatalf("assignment = %v", m)
	}
	if _, ok := m[9]; ok {
		t.Fatal("phantom assignment")
	}
}

// TestFilterZeroCoverageIsDefault: coverage 0 asks for the paper's 90%,
// as every other zero parameter asks for its default, and the filter
// leaves the raw graph as it was.
func TestFilterZeroCoverageIsDefault(t *testing.T) {
	// 100 accesses over contexts 0..3: 60, 25, 10, 5.
	raw := buildGraph(map[affinity.Ctx]uint64{0: 60, 1: 25, 2: 10, 3: 5},
		map[[2]affinity.Ctx]uint64{{0, 1}: 9, {1, 2}: 4, {2, 3}: 2})
	before := raw.String()
	zero, def := Filter(raw, Params{}), Filter(raw, Params{Coverage: DefaultCoverage})
	if zero.String() != def.String() {
		t.Fatalf("coverage 0 kept %s, DefaultCoverage %s", zero, def)
	}
	// 0.90 of 100 accesses is covered by the three hottest contexts.
	if zero.NumNodes() != 3 || zero.NumEdges() != 2 {
		t.Fatalf("default filter kept %d nodes, %d edges; want 3, 2", zero.NumNodes(), zero.NumEdges())
	}
	if full := Filter(raw, Params{Coverage: 1}); full.NumNodes() != 4 {
		t.Fatalf("coverage 1 kept %d nodes, want all 4", full.NumNodes())
	}
	if raw.String() != before {
		t.Fatal("filtering wrote to the raw graph")
	}
}
