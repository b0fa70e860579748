package profile

// This file is the persistence surface of the package: the chain key and
// the standalone interning table that internal/profstore builds its
// serialisation format and profile merging on. Nothing here is used by a
// live profiling run.

// ChainKey canonically serialises a reduced chain. Two chains are the same
// allocation context if and only if their keys are equal, which is how
// contexts from independent profiling runs are matched during merging.
func ChainKey(chain []ChainEntry) string { return chainKey(chain) }

// ContextSet interns reduced chains outside a live profiling run. Interning
// order assigns IDs, so callers that need deterministic IDs (profile
// merging) must intern in a canonical order.
type ContextSet struct {
	table *contextTable
}

// NewContextSet returns an empty interning table.
func NewContextSet() *ContextSet {
	return &ContextSet{table: newContextTable()}
}

// Intern returns the context for a reduced chain, creating it with the next
// free ID on first use.
func (s *ContextSet) Intern(chain []ChainEntry) *Context {
	return s.table.intern(chain)
}

// Lookup returns the interned context for a chain, or nil.
func (s *ContextSet) Lookup(chain []ChainEntry) *Context {
	if id, ok := s.table.byKey[ChainKey(chain)]; ok {
		return s.table.list[id]
	}
	return nil
}

// List returns the interned contexts indexed by their affinity.Ctx IDs.
func (s *ContextSet) List() []*Context { return s.table.list }

// Len reports the number of interned contexts.
func (s *ContextSet) Len() int { return len(s.table.list) }
