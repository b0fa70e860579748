// Package hds replicates the comparison technique of Chilimbi & Shaham,
// "Cache-conscious Coallocation of Hot Data Streams" (PLDI '06), exactly as
// the paper's evaluation does (§5.1): the object-level data reference trace
// is compressed with SEQUITUR (internal/sequitur), minimal hot data streams
// of 2–20 elements are extracted with the stream threshold set to cover 90%
// of heap accesses, streams are converted to co-allocation sets scored by
// their projected cache-line savings, and a profitable non-overlapping
// family is chosen with Halldórsson's greedy approximation to weighted set
// packing. At runtime the resulting groups are identified by the immediate
// call site of the allocation procedure.
package hds

import (
	"fmt"

	"halo/internal/isa"
	"halo/internal/obs"
	"halo/internal/profile"
	"halo/internal/sequitur"
)

// Config parameterises the full hot-data-streams analysis.
type Config struct {
	Streams   StreamConfig
	MaxGroups int
}

// Result is the outcome of the analysis: the co-allocation policy and the
// statistics the evaluation reports (stream counts for the roms
// comparison against HALO's 31-node affinity graph).
type Result struct {
	Streams    int // hot streams selected
	Candidates int // candidate streams considered
	Rules      int // grammar rules inferred
	TraceLen   int
	Sets       []CoallocSet     // selected co-allocation sets
	SiteGroups map[isa.Addr]int // runtime policy: immediate site -> group
}

// Analyze runs the pipeline over a profile's data reference trace —
// recorded by the profiler's trace recorder as it drains the VM's batched
// event stream (profile.Config.RecordTrace), so the trace order is the
// exact execution order regardless of batch size: grammar inference,
// hot-stream extraction, co-allocation set construction, and
// weighted set packing. The returned SiteGroups table is the runtime
// identification policy (immediate call site of the allocation procedure).
//
// tr, when non-nil, receives one span per analysis stage (the SEQUITUR
// grammar, co-allocation set construction, set packing).
func Analyze(p *profile.Profile, cfg Config, tr *obs.Trace) *Result {
	endSeq := tr.Span("hds/sequitur")
	g := sequitur.NewGrammar()
	for _, b := range p.Trace.Blocks() {
		for _, s := range b {
			g.Append(int64(s))
		}
	}
	ext := ExtractStreams(g, cfg.Streams)
	endSeq()
	endSets := tr.Span("hds/sets")
	sets := BuildSets(ext.Streams, p.Trace.Objects())
	endSets()
	endPack := tr.Span("hds/setpack")
	packed := PackSets(sets, cfg.MaxGroups)
	endPack()

	siteGroups := make(map[isa.Addr]int)
	for g, s := range packed {
		for _, site := range s.Sites {
			siteGroups[site] = g
		}
	}
	return &Result{
		Streams:    len(ext.Streams),
		Candidates: ext.Candidates,
		Rules:      ext.Rules,
		TraceLen:   ext.TraceLen,
		Sets:       packed,
		SiteGroups: siteGroups,
	}
}

// String summarises the result.
func (r *Result) String() string {
	return fmt.Sprintf("hds: %d rules, %d candidate / %d hot streams over %d refs, %d co-allocation sets",
		r.Rules, r.Candidates, r.Streams, r.TraceLen, len(r.Sets))
}
