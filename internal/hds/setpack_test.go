package hds

import (
	"testing"

	"halo/internal/isa"
	"halo/internal/profile"
)

// objectsAt builds the dense object table with infos at serials 1, 2, ….
func objectsAt(infos ...profile.ObjectInfo) []profile.ObjectInfo {
	return append([]profile.ObjectInfo{{}}, infos...)
}

func TestBuildSetsBenefitModel(t *testing.T) {
	objects := objectsAt(
		profile.ObjectInfo{Site: isa.MakeAddr(1, 1), Size: 24},
		profile.ObjectInfo{Site: isa.MakeAddr(2, 2), Size: 24},
		profile.ObjectInfo{Site: isa.MakeAddr(3, 3), Size: 64}, // full line: no savings alone
	)
	streams := []Stream{
		{Objects: []int64{1, 2}, Freq: 10, Heat: 20},
	}
	sets := BuildSets(streams, objects)
	if len(sets) != 1 {
		t.Fatalf("sets = %d", len(sets))
	}
	// Two 24-byte objects: separate footprint 128, packed 48: 1.25 lines
	// saved per traversal x freq 10.
	want := 10.0 * float64(128-48) / 64
	if sets[0].Benefit != want {
		t.Fatalf("benefit = %v, want %v", sets[0].Benefit, want)
	}
	if len(sets[0].Sites) != 2 {
		t.Fatalf("sites = %v", sets[0].Sites)
	}
}

func TestBuildSetsDropsNoSavings(t *testing.T) {
	objects := objectsAt(
		profile.ObjectInfo{Site: isa.MakeAddr(1, 1), Size: 64},
		profile.ObjectInfo{Site: isa.MakeAddr(2, 2), Size: 128},
	)
	streams := []Stream{{Objects: []int64{1, 2}, Freq: 5, Heat: 10}}
	if sets := BuildSets(streams, objects); len(sets) != 0 {
		t.Fatalf("line-aligned objects produced sets: %v", sets)
	}
}

func TestBuildSetsMergesIdenticalSiteSets(t *testing.T) {
	objects := objectsAt(
		profile.ObjectInfo{Site: isa.MakeAddr(1, 1), Size: 16},
		profile.ObjectInfo{Site: isa.MakeAddr(2, 2), Size: 16},
		profile.ObjectInfo{Site: isa.MakeAddr(1, 1), Size: 16},
		profile.ObjectInfo{Site: isa.MakeAddr(2, 2), Size: 16},
	)
	streams := []Stream{
		{Objects: []int64{1, 2}, Freq: 3, Heat: 6},
		{Objects: []int64{3, 4}, Freq: 2, Heat: 4},
	}
	sets := BuildSets(streams, objects)
	if len(sets) != 1 {
		t.Fatalf("sets = %d, want merged 1", len(sets))
	}
	if sets[0].Streams != 2 {
		t.Fatalf("merged streams = %d", sets[0].Streams)
	}
}

func TestPackSetsNonOverlapping(t *testing.T) {
	s1 := CoallocSet{Sites: []isa.Addr{1, 2}, Benefit: 100}
	s2 := CoallocSet{Sites: []isa.Addr{2, 3}, Benefit: 90} // overlaps s1
	s3 := CoallocSet{Sites: []isa.Addr{4}, Benefit: 10}
	packed := PackSets([]CoallocSet{s1, s2, s3}, 0)
	if len(packed) != 2 {
		t.Fatalf("packed = %d, want 2", len(packed))
	}
	if packed[0].Benefit != 100 || packed[1].Benefit != 10 {
		t.Fatalf("wrong selection: %+v", packed)
	}
}

func TestPackSetsMaxGroups(t *testing.T) {
	var sets []CoallocSet
	for i := 0; i < 10; i++ {
		sets = append(sets, CoallocSet{Sites: []isa.Addr{isa.Addr(i + 1)}, Benefit: float64(10 - i)})
	}
	packed := PackSets(sets, 4)
	if len(packed) != 4 {
		t.Fatalf("packed = %d, want 4 (the roms --max-groups case)", len(packed))
	}
}

func TestPackSetsHalldorssonOrder(t *testing.T) {
	// A large set with slightly higher benefit loses to a small set when
	// weighted by 1/sqrt(|set|).
	big := CoallocSet{Sites: []isa.Addr{1, 2, 3, 4, 5, 6, 7, 8, 9}, Benefit: 12}
	small := CoallocSet{Sites: []isa.Addr{1}, Benefit: 10}
	packed := PackSets([]CoallocSet{big, small}, 0)
	if packed[0].Benefit != 10 {
		t.Fatalf("ordering wrong: %+v", packed)
	}
}

func TestTruncatedStreamPrefix(t *testing.T) {
	// A long periodic trace compresses into rules longer than the
	// window: extraction must still produce (truncated) streams.
	var seq []int64
	for rep := 0; rep < 30; rep++ {
		for i := int64(0); i < 50; i++ {
			seq = append(seq, i)
		}
	}
	res := ExtractStreams(grammarOf(seq), StreamConfig{})
	if len(res.Streams) == 0 {
		t.Fatal("no streams from a long periodic trace")
	}
	foundTrunc := false
	for _, s := range res.Streams {
		if len(s.Objects) > 20 {
			t.Fatalf("stream longer than the window: %d", len(s.Objects))
		}
		if s.Truncated {
			foundTrunc = true
		}
	}
	if !foundTrunc {
		t.Fatal("no truncated streams marked")
	}
}
