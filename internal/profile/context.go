package profile

import (
	"encoding/binary"
	"fmt"
	"strings"

	"halo/internal/affinity"
	"halo/internal/isa"
)

// ChainEntry is one element of an allocation context: a function together
// with the (main-binary) call site it was invoked from. The final entry of
// every chain is the memory-management routine itself, with Fn = AllocFn.
type ChainEntry struct {
	Fn   int32    // function index; AllocFn for the allocation routine
	Site isa.Addr // call site, traced back into the main binary
}

// AllocFn is the pseudo-function index of the allocation routine at the
// end of every chain.
const AllocFn int32 = -1

// Context is a reduced allocation context: the canonical form of the call
// stack at an allocation, with only the most recent of any (function, call
// site) pair retained (§4.1).
type Context struct {
	ID     affinity.Ctx
	Chain  []ChainEntry
	Allocs uint64 // allocations made from this context
}

// Sites returns the distinct call sites in the chain, the candidate
// instrumentation points for selector construction.
func (c *Context) Sites() []isa.Addr {
	seen := make(map[isa.Addr]bool, len(c.Chain))
	var out []isa.Addr
	for _, e := range c.Chain {
		if e.Site != isa.NoAddr && !seen[e.Site] {
			seen[e.Site] = true
			out = append(out, e.Site)
		}
	}
	return out
}

// HasSite reports whether the chain passes through the call site.
func (c *Context) HasSite(site isa.Addr) bool {
	for _, e := range c.Chain {
		if e.Site == site {
			return true
		}
	}
	return false
}

// SitePos returns the position of the site in the chain (0 = stack bottom,
// the paper's tie-break preference), or -1.
func (c *Context) SitePos(site isa.Addr) int {
	for i, e := range c.Chain {
		if e.Site == site {
			return i
		}
	}
	return -1
}

// Describe renders the chain with function names for reports (Figure 9).
func (c *Context) Describe(p *isa.Program) string {
	var b strings.Builder
	fmt.Fprintf(&b, "ctx%d[", c.ID)
	for i, e := range c.Chain {
		if i > 0 {
			b.WriteString(" > ")
		}
		name := "alloc"
		if e.Fn >= 0 && int(e.Fn) < len(p.Funcs) {
			name = p.Funcs[e.Fn].Name
		}
		if e.Site != isa.NoAddr {
			fmt.Fprintf(&b, "%s@%s", name, p.SiteName(e.Site))
		} else {
			b.WriteString(name)
		}
	}
	b.WriteByte(']')
	return b.String()
}

// reduceChain canonicalises a raw chain: only the most recent of any
// (function, call site) pair is retained, preserving the relative order of
// the retained occurrences. This avoids overfitting on recursion without
// imposing fixed size limits (§4.1).
func reduceChain(raw []ChainEntry) []ChainEntry {
	return reduceChainInto(make([]ChainEntry, 0, len(raw)), raw)
}

// reduceChainInto is reduceChain appending into caller-owned scratch, the
// allocation-free form the profiler uses on its hot allocation path.
// Chains are call stacks — short — so membership is a linear scan rather
// than a map built per call.
func reduceChainInto(out []ChainEntry, raw []ChainEntry) []ChainEntry {
	for i := len(raw) - 1; i >= 0; i-- {
		e := raw[i]
		dup := false
		for _, kept := range out {
			if kept == e {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, e)
		}
	}
	// Reverse into bottom-to-top order.
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// appendChainKey serialises a chain for interning into buf.
func appendChainKey(buf []byte, chain []ChainEntry) []byte {
	var tmp [8]byte
	for _, e := range chain {
		binary.LittleEndian.PutUint32(tmp[0:4], uint32(e.Fn))
		binary.LittleEndian.PutUint32(tmp[4:8], uint32(e.Site))
		buf = append(buf, tmp[:]...)
	}
	return buf
}

// chainKey serialises a chain for interning.
func chainKey(chain []ChainEntry) string {
	return string(appendChainKey(make([]byte, 0, len(chain)*8), chain))
}

// contextTable interns reduced chains.
type contextTable struct {
	byKey  map[string]affinity.Ctx
	list   []*Context
	keyBuf []byte // scratch; lets table hits skip the key allocation
}

func newContextTable() *contextTable {
	return &contextTable{byKey: make(map[string]affinity.Ctx)}
}

// intern returns the context for a reduced chain, creating it on first
// use. A chain already in the table allocates nothing: the key is built in
// the table's scratch buffer and the map lookup converts it without a
// copy.
func (t *contextTable) intern(chain []ChainEntry) *Context {
	t.keyBuf = appendChainKey(t.keyBuf[:0], chain)
	if id, ok := t.byKey[string(t.keyBuf)]; ok {
		return t.list[id]
	}
	id := affinity.Ctx(len(t.list))
	c := &Context{ID: id, Chain: append([]ChainEntry(nil), chain...)}
	t.byKey[string(t.keyBuf)] = id
	t.list = append(t.list, c)
	return c
}
