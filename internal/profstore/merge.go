package profstore

import (
	"fmt"
	"sort"

	"halo/internal/affinity"
	"halo/internal/group"
	"halo/internal/profile"
)

// Deprecated: coverage is a grouping parameter; use group.DefaultCoverage.
const DefaultCoverage = group.DefaultCoverage

// Deprecated: merging no longer filters, so coverage is ignored; use Merge.
func MergeWithCoverage(_ float64, profs ...*profile.Profile) (*profile.Profile, error) {
	return Merge(profs...)
}

// Merge combines profiles of one program (matched by ProgName) into one.
// The inputs are only read. Like an image, the result holds only what the
// runs observed: the raw affinity graph, which synthesis filters itself.
//
// One profile has nothing to merge: the result is a shallow copy, so it
// keeps its context numbering and trace and re-encodes byte-identically,
// and setting a field on it never writes to the input.
//
// Several profiles are merged by identifying contexts across runs through
// their reduced chains and summing node access counts and edge weights.
// Context IDs are assigned in canonical (chain-key) order and all
// combination is additive, so the result does not depend on argument
// order. Reference traces (hot-data-streams is defined over one run's
// reference order) do not survive merging.
func Merge(profs ...*profile.Profile) (*profile.Profile, error) {
	if len(profs) == 0 {
		return nil, fmt.Errorf("profstore: merge: no profiles")
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
