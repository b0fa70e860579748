package profstore

import (
	"bytes"
	"testing"

	"halo/internal/affinity"
	"halo/internal/profile"
)

// fuzzSeedProfiles builds a spread of small valid profiles covering the
// format's features: empty, multi-context and graphs with loop edges.
func fuzzSeedProfiles(tb testing.TB) []*profile.Profile {
	tb.Helper()
	mk := func(build func(set *profile.ContextSet, p *profile.Profile)) *profile.Profile {
		p := &profile.Profile{ProgName: "fuzz"}
		set := profile.NewContextSet()
		build(set, p)
		p.Contexts = set.List()
		if p.RawGraph == nil {
			p.RawGraph = affinity.NewGraph()
		}
		return p
	}

	empty := mk(func(set *profile.ContextSet, p *profile.Profile) {})

	rich := mk(func(set *profile.ContextSet, p *profile.Profile) {
		a := set.Intern([]profile.ChainEntry{
			{Fn: 0, Site: 4}, {Fn: profile.AllocFn, Site: 12},
		})
		a.Allocs = 3
		b := set.Intern([]profile.ChainEntry{
			{Fn: 1, Site: 20}, {Fn: profile.AllocFn, Site: 28},
		})
		b.Allocs = 2

		raw := affinity.NewGraph()
		raw.AddAccesses(a.ID, 90)
		raw.AddAccesses(b.ID, 10)
		raw.AddEdge(a.ID, b.ID, 5)
		raw.AddEdge(a.ID, a.ID, 2) // loop edge
		p.RawGraph = raw
		p.TotalAllocs = 5
		p.TrackedAllocs = 5
		p.PeakLive = 2
	})

	merged, err := Merge(rich, rich)
	if err != nil {
		tb.Fatalf("building merged seed: %v", err)
	}
	return []*profile.Profile{empty, rich, merged}
}

// FuzzDecode throws arbitrary bytes at the profile-image decoder. Decode
// must never panic or over-allocate (the plausibility caps), and any image
// it accepts must re-encode canonically: Encode(Decode(img)) is a fixed
// point of another decode/encode round. An accepted image yields a raw
// graph whose total is the sum of its nodes' accesses.
func FuzzDecode(f *testing.F) {
	for _, p := range fuzzSeedProfiles(f) {
		img, err := Encode(p)
		if err != nil {
			f.Fatalf("encoding seed profile: %v", err)
		}
		f.Add(img)
		f.Add(withVersion(img, 2))
		f.Add(version3Image(img))
		// Truncated and bit-flipped variants seed the corpus with
		// near-valid images so the mutator starts at the caps.
		f.Add(img[:len(img)/2])
		flipped := bytes.Clone(img)
		flipped[len(flipped)/3] ^= 0x40
		f.Add(flipped)
	}
	f.Add(version1Image())
	for _, tc := range nonCanonicalGraphs {
		f.Add(tc.img)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Decode(data)
		if err != nil {
			return // rejected: that is a fine outcome for arbitrary bytes
		}
		var sum uint64
		for _, c := range p.RawGraph.Nodes() {
			sum += p.RawGraph.Accesses(c)
		}
		if total := p.RawGraph.TotalAccesses(); total != sum {
			t.Fatalf("decoded total %d, node accesses sum to %d", total, sum)
		}
		enc, err := Encode(p)
		if err != nil {
			t.Fatalf("decoded profile failed to re-encode: %v", err)
		}
		p2, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-encoded image failed to decode: %v", err)
		}
		enc2, err := Encode(p2)
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("encode/decode not canonical: images differ (%d vs %d bytes)", len(enc), len(enc2))
		}
	})
}
