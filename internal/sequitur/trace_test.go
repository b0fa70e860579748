package sequitur_test

import (
	"reflect"
	"testing"

	"halo/internal/core"
	"halo/internal/hds"
	"halo/internal/sequitur"
	"halo/internal/workloads"
)

// referenceTrace profiles a workload's test-scale build with the data
// reference trace on and returns the object identities hds.Analyze feeds
// to SEQUITUR.
func referenceTrace(tb testing.TB, w workloads.Workload) []int64 {
	tb.Helper()
	cfg := core.Config{}
	cfg.Profile.RecordTrace = true
	prof, err := core.Profile(w.Build(w.TestScale), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	trace := make([]int64, len(prof.Trace))
	for i, r := range prof.Trace {
		trace[i] = int64(r.Obj)
	}
	return trace
}

func grammarOf(g *sequitur.Grammar, trace []int64) *sequitur.Grammar {
	for _, v := range trace {
		g.Append(v)
	}
	return g
}

// TestTracesMatchReference builds every workload's grammar with and
// without extend: the two must be equal up to rule-slot renaming and give
// the same hot data streams. The synthesis goldens pin only povray's and
// omnetpp's streams.
func TestTracesMatchReference(t *testing.T) {
	for _, w := range workloads.All() {
		t.Run(w.Name, func(t *testing.T) {
			trace := referenceTrace(t, w)
			g := grammarOf(sequitur.NewGrammar(), trace)
			ref := grammarOf(sequitur.NewReference(), trace)
			if sequitur.Canonical(g) != sequitur.Canonical(ref) {
				t.Fatalf("grammar of the %d-reference trace differs from the reference grammar", len(trace))
			}
			got, want := hds.ExtractStreams(g, hds.StreamConfig{}), hds.ExtractStreams(ref, hds.StreamConfig{})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("ExtractStreams = %d streams over %d candidates, reference %d over %d",
					len(got.Streams), got.Candidates, len(want.Streams), want.Candidates)
			}
		})
	}
}

// BenchmarkSequiturTrace appends the test-scale reference trace of each
// pipeline program (perfbench's pipeline workload) to a new grammar, and
// reports the time per append and the share of appends whose repeat
// extend resolves, the property the in-place path's gain depends on.
func BenchmarkSequiturTrace(b *testing.B) {
	for _, name := range []string{"povray", "xalanc", "omnetpp"} {
		b.Run(name, func(b *testing.B) {
			trace := referenceTrace(b, workloads.MustGet(name))
			var g *sequitur.Grammar
			for b.Loop() {
				g = grammarOf(sequitur.NewGrammar(), trace)
			}
			appends := float64(b.N) * float64(len(trace))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/appends, "ns/append")
			b.ReportMetric(float64(sequitur.Extended(g))/float64(len(trace)), "extends/append")
		})
	}
}
