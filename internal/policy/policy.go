// Package policy defines the allocator-policy JSON document exchanged by
// the pipeline's frontends: `halo opt` writes it, `halo run -alloc halo`
// consumes it, and the halod daemon serves it for finished optimize jobs.
// It lives in its own package so the CLI and the service share one
// definition and one constructor without depending on each other.
package policy

import "halo/internal/core"

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
