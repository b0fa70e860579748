// Package policy defines the allocator-policy JSON document exchanged by
// the pipeline's frontends: `halo opt` writes it, `halo run -alloc halo`
// consumes it, and the halod daemon serves it for finished optimize jobs.
// It lives in its own package so the CLI and the service share one
// definition, one constructor (New) and one reader (Doc.HALOPolicy)
// without depending on each other.
package policy

import (
	"fmt"
	"maps"

	"halo/internal/core"
	"halo/internal/halloc"
	"halo/internal/isa"
	"halo/internal/measure"
)

// Doc is the policy document.
type Doc struct {
	Program   string         `json:"program"`
	NumBits   int            `json:"num_bits"`
	Selectors []Sel          `json:"selectors"`
	Halloc    Halloc         `json:"halloc"`
	Sites     map[string]int `json:"sites"` // site string -> bit
}

// New builds the document for an optimised binary: the group-state bit of
// every instrumented site, the selectors lowered onto those bits, and the
// allocator tuning h.
func New(opt *core.Optimized, h Halloc) Doc {
	d := Doc{
		Program: opt.Input.Name,
		NumBits: opt.Rewrite.NumBits,
		Halloc:  h,
		Sites:   make(map[string]int, len(opt.Rewrite.SiteBits)),
	}
	for site, bit := range opt.Rewrite.SiteBits {
		d.Sites[site.String()] = bit
	}
	for _, s := range opt.BitSelectors {
		d.Selectors = append(d.Selectors, Sel{Group: s.Group, Conj: s.Conj})
	}
	return d
}

// HALOPolicy turns the document into the measurement policy that runs p,
// the rewritten binary it was written for, under the group allocator.
// Rewriting keeps a program's name, so a document whose program is not p's
// belongs to another binary: its selectors would read the wrong sites. For
// the same reason the name cannot tell the rewritten binary from its
// original, so p's instrumentation must also be exactly the document's
// sites and bits: on an un-rewritten p no group-state bit would ever be
// set, and every allocation would silently fall through to the default
// allocator.
func (d Doc) HALOPolicy(p *isa.Program) (measure.Policy, error) {
	if d.Program != p.Name {
		return measure.Policy{}, fmt.Errorf("policy is for program %q, not %q", d.Program, p.Name)
	}
	if got := instrumentation(p); !maps.Equal(got, d.Sites) || d.NumBits != len(got) {
		return measure.Policy{}, fmt.Errorf("binary %q is not instrumented for this policy: %d instrumented call sites, the policy names %d sites over %d bits",
			p.Name, len(got), len(d.Sites), d.NumBits)
	}
	pol := measure.Policy{
		Kind:      measure.HALO,
		Rewritten: p,
		NumBits:   d.NumBits,
		Halloc: halloc.Config{
			ChunkSize:         d.Halloc.ChunkSize,
			MaxSpareChunks:    d.Halloc.MaxSpareChunks,
			NoSpare:           d.Halloc.NoSpare,
			AlwaysReuseChunks: d.Halloc.AlwaysReuse,
		},
	}
	for _, s := range d.Selectors {
		pol.Selectors = append(pol.Selectors, halloc.BitSelector{Group: s.Group, Conj: s.Conj})
	}
	return pol, nil
}

// instrumentation reads the rewriter's site-to-bit assignment back out of
// p: every call instruction bracketed by a group-state set and clear of
// one bit, keyed like Doc.Sites.
func instrumentation(p *isa.Program) map[string]int {
	sites := make(map[string]int)
	for _, f := range p.Funcs {
		for i := 0; i+2 < len(f.Code); i++ {
			set, call, clr := f.Code[i], f.Code[i+1], f.Code[i+2]
			if set.Op == isa.OpGroupSet && call.IsCall() && clr.Op == isa.OpGroupClr && clr.Imm == set.Imm {
				sites[call.Addr.String()] = int(set.Imm)
			}
		}
	}
	return sites
}

// Sel is one lowered selector.
type Sel struct {
	Group int     `json:"group"`
	Conj  [][]int `json:"conj"`
}

// Halloc carries group-allocator tuning. The daemon leaves it zero
// (requests do not expose allocator tuning); `halo opt` fills it from its
// flags.
type Halloc struct {
	ChunkSize      uint64 `json:"chunk_size,omitempty"`
	MaxSpareChunks int    `json:"max_spare_chunks,omitempty"` // 0 = allocator default
	NoSpare        bool   `json:"no_spare,omitempty"`
	AlwaysReuse    bool   `json:"always_reuse,omitempty"`
}
