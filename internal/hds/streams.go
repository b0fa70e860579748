package hds

import (
	"sort"

	"halo/internal/sequitur"
)

// Stream is a minimal hot data stream: a sequence of object identities
// that recurs in the reference trace, with its recurrence count. Streams
// derived from grammar rules whose expansions exceed the length window are
// truncated to the window — the behaviour the paper criticises ("the hot
// data streams for other areas of the program's behaviour may be cut
// short, and their corresponding co-allocation sets rendered
// near-useless", §5.2).
type Stream struct {
	Objects   []int64 // object serials (possibly a truncated prefix)
	Freq      int     // occurrences in the trace
	Heat      int     // full expansion length * Freq
	Truncated bool
}

// StreamConfig bounds stream extraction; zero values take the settings the
// paper uses for its replication (§5.1): streams of 2..20 elements, with
// the threshold chosen to account for 90% of all heap accesses.
type StreamConfig struct {
	MinLen   int
	MaxLen   int
	Coverage float64
}

func (c StreamConfig) withDefaults() StreamConfig {
	if c.MinLen == 0 {
		c.MinLen = 2
	}
	if c.MaxLen == 0 {
		c.MaxLen = 20
	}
	if c.Coverage == 0 {
		c.Coverage = 0.90
	}
	return c
}

// ExtractResult reports stream extraction outcomes, including the counts
// the paper's roms discussion relies on ("the hot-data-stream-based
// approach requires over 150,000 streams").
type ExtractResult struct {
	Streams    []Stream
	Candidates int // rules with expansions in the length window
	Rules      int // live grammar rules
	Covered    int // trace elements accounted for by the selected streams
	TraceLen   int
}

// ExtractStreams extracts minimal hot data streams from the grammar of a
// trace of object identities: rule expansions within the length window,
// hottest first, until the selected streams' heat accounts for the
// configured fraction of the trace. Candidates are gathered in rule
// creation order, which fixes the order the sort sees among equal streams.
func ExtractStreams(g *sequitur.Grammar, cfg StreamConfig) *ExtractResult {
	cfg = cfg.withDefaults()
	freq := sequitur.RuleFreq(g)
	lens := sequitur.RuleLens(g)

	var cands []Stream
	for _, r := range g.Rules()[1:] { // the start rule is the whole trace
		num := r.Number
		l := lens[num]
		if l < cfg.MinLen {
			continue
		}
		f := freq[num]
		if f < 2 {
			continue // a stream must recur
		}
		// A rule whose expansion exceeds the stream window is cut short at
		// the window, keeping the full expansion's heat.
		objs := sequitur.ExpandRulePrefix(g, num, cfg.MaxLen)
		cands = append(cands, Stream{Objects: objs, Freq: f, Heat: l * f, Truncated: l > cfg.MaxLen})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Heat != cands[j].Heat {
			return cands[i].Heat > cands[j].Heat
		}
		return less(cands[i].Objects, cands[j].Objects)
	})

	res := &ExtractResult{Candidates: len(cands), Rules: g.NumRules(), TraceLen: g.Length()}
	want := int(cfg.Coverage * float64(g.Length()))
	for _, s := range cands {
		if res.Covered >= want {
			break
		}
		res.Streams = append(res.Streams, s)
		res.Covered += s.Heat
	}
	return res
}

func less(a, b []int64) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
