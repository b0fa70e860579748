// Package policy defines the allocator-policy JSON document exchanged by
// the pipeline's frontends: `halo opt` writes it, `halo run -alloc halo`
// consumes it, and the halod daemon serves it for finished optimize jobs.
// It lives in a leaf package so the CLI and the service share one
// definition without depending on each other.
package policy

// Doc is the policy document.
type Doc struct {
	Program   string         `json:"program"`
	NumBits   int            `json:"num_bits"`
	Selectors []Sel          `json:"selectors"`
	Halloc    Halloc         `json:"halloc"`
	Sites     map[string]int `json:"sites"` // site string -> bit
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
