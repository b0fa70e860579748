package hds

import (
	"testing"

	"halo/internal/sequitur"
)

// grammarOf builds the SEQUITUR grammar of an object-identity trace.
func grammarOf(trace []int64) *sequitur.Grammar {
	g := sequitur.NewGrammar()
	for _, v := range trace {
		g.Append(v)
	}
	return g
}

func TestExtractStreamsFindsHotStream(t *testing.T) {
	// Objects 10,11,12 are traversed 50 times; 90..99 appear once each.
	var seq []int64
	for i := 0; i < 50; i++ {
		seq = append(seq, 10, 11, 12)
	}
	for i := int64(90); i < 100; i++ {
		seq = append(seq, i)
	}
	res := ExtractStreams(grammarOf(seq), StreamConfig{})
	if len(res.Streams) == 0 {
		t.Fatal("no hot streams found")
	}
	top := res.Streams[0]
	found := make(map[int64]bool)
	for _, o := range top.Objects {
		found[o] = true
	}
	if !found[10] || !found[11] || !found[12] {
		t.Fatalf("hottest stream %v does not cover the loop objects", top.Objects)
	}
	if top.Freq < 2 {
		t.Fatalf("hottest stream freq = %d", top.Freq)
	}
}

func TestExtractStreamsLengthWindow(t *testing.T) {
	var seq []int64
	for i := 0; i < 40; i++ {
		seq = append(seq, 1, 2, 3, 4)
	}
	res := ExtractStreams(grammarOf(seq), StreamConfig{MinLen: 2, MaxLen: 3, Coverage: 0.9})
	for _, s := range res.Streams {
		if len(s.Objects) < 2 || len(s.Objects) > 3 {
			t.Fatalf("stream length %d outside window", len(s.Objects))
		}
	}
}
