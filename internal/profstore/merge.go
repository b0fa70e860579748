package profstore

import (
	"fmt"
	"sort"

	"halo/internal/affinity"
	"halo/internal/profile"
)

// DefaultCoverage is the paper's node-filter fraction (§4.1), applied to
// the merged raw graph when no explicit coverage is given.
const DefaultCoverage = profile.DefaultCoverage

// MergeWithCoverage is the one rule that turns stored profiles into the
// profile grouping reads: it filters the raw affinity graph at the given
// coverage (0 means DefaultCoverage), merging first if there are several
// profiles. The inputs are only read.
//
// One profile is not merged: the result is a shallow copy with only the
// filtered graph set, so it keeps its context numbering and trace and
// re-encodes byte-identically, whatever coverage it was recorded at.
//
// Several profiles of one program (matched by ProgName) are merged by
// identifying contexts across runs through their reduced chains and
// summing node access counts and edge weights. Context IDs are assigned in
// canonical (chain-key) order and all combination is additive, so the
// result does not depend on argument order. Reference traces
// (hot-data-streams is defined over one run's reference order) do not
// survive merging.
func MergeWithCoverage(coverage float64, profs ...*profile.Profile) (*profile.Profile, error) {
	if len(profs) == 0 {
		return nil, fmt.Errorf("profstore: merge: no profiles")
	}
	if coverage < 0 || coverage > 1 {
		return nil, fmt.Errorf("profstore: merge: coverage %v out of [0,1]", coverage)
	}
	if coverage == 0 {
		coverage = DefaultCoverage
	}
	name := progName(profs[0])
	for _, p := range profs {
		if p == nil {
			return nil, fmt.Errorf("profstore: merge: nil profile")
		}
		if p.RawGraph == nil {
			return nil, fmt.Errorf("profstore: merge: profile for %q has no raw graph", progName(p))
		}
		if n := progName(p); n != name {
			return nil, fmt.Errorf("profstore: merge: program mismatch: %q vs %q", name, n)
		}
	}
	if len(profs) == 1 {
		p := *profs[0]
		p.Graph = p.RawGraph.Filter(coverage)
		return &p, nil
	}

	// Canonical context numbering: every distinct chain across all inputs,
	// interned in ascending chain-key order.
	chains := make(map[string][]profile.ChainEntry)
	for _, p := range profs {
		for _, c := range p.Contexts {
			chains[profile.ChainKey(c.Chain)] = c.Chain
		}
	}
	keys := make([]string, 0, len(chains))
	for k := range chains {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	set := profile.NewContextSet()
	for _, k := range keys {
		set.Intern(chains[k])
	}

	// Fold every input into the canonical numbering.
	raw := affinity.NewGraph()
	out := &profile.Profile{ProgName: name, Contexts: set.List()}
	for _, p := range profs {
		remap := make([]affinity.Ctx, len(p.Contexts))
		for i, c := range p.Contexts {
			merged := set.Lookup(c.Chain)
			merged.Allocs += c.Allocs
			remap[i] = merged.ID
		}
		raw.Merge(p.RawGraph, func(c affinity.Ctx) affinity.Ctx { return remap[c] })
		out.TotalAllocs += p.TotalAllocs
		out.TrackedAllocs += p.TrackedAllocs
		if p.PeakLive > out.PeakLive {
			out.PeakLive = p.PeakLive
		}
		if out.Prog == nil {
			out.Prog = p.Prog
		}
	}
	out.RawGraph = raw
	out.Graph = raw.Filter(coverage)
	return out, nil
}

func progName(p *profile.Profile) string {
	if p == nil {
		return ""
	}
	if p.ProgName != "" {
		return p.ProgName
	}
	if p.Prog != nil {
		return p.Prog.Name
	}
	return ""
}
