package profstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"

	"halo/internal/alloc"
	"halo/internal/mem"
	"halo/internal/profile"
	"halo/internal/vm"
	"halo/internal/workloads"
)

// profileWorkload profiles a workload at test scale with the given seed.
// It drives the profiler directly (core imports this package, so
// internal/core is off limits here); the equivalent core.Profile path is
// exercised by profstore_pipeline_test.go in the external test package.
func profileWorkload(t testing.TB, name string, seed uint64, trace bool) *profile.Profile {
	t.Helper()
	w := workloads.MustGet(name)
	p := w.Build(w.TestScale)
	pr := profile.New(p, profile.Config{RecordTrace: trace})
	memory := mem.NewMemory()
	v := vm.New(p, memory, alloc.NewSizeSeg(mem.NewOS(memory)), pr, vm.Config{Seed: seed})
	if _, err := v.Run(); err != nil {
		t.Fatalf("profiling %s: %v", name, err)
	}
	return pr.Finish()
}

func TestRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		workload string
		trace    bool
	}{
		{"povray", false},
		{"art", true},
	} {
		t.Run(tc.workload, func(t *testing.T) {
			prof := profileWorkload(t, tc.workload, 7, tc.trace)
			img, err := Encode(prof)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Decode(img)
			if err != nil {
				t.Fatal(err)
			}

			if got.ProgName != prof.ProgName {
				t.Errorf("ProgName = %q, want %q", got.ProgName, prof.ProgName)
			}
			if got.Prog != nil {
				t.Errorf("decoded profile should not carry a program")
			}
			if got.TotalAllocs != prof.TotalAllocs || got.TrackedAllocs != prof.TrackedAllocs ||
				got.PeakLive != prof.PeakLive {
				t.Errorf("stats mismatch: got %d/%d/%d want %d/%d/%d",
					got.TotalAllocs, got.TrackedAllocs, got.PeakLive,
					prof.TotalAllocs, prof.TrackedAllocs, prof.PeakLive)
			}

			if len(got.Contexts) != len(prof.Contexts) {
				t.Fatalf("%d contexts, want %d", len(got.Contexts), len(prof.Contexts))
			}
			for i, want := range prof.Contexts {
				c := got.Contexts[i]
				if c.ID != want.ID || c.Allocs != want.Allocs || !reflect.DeepEqual(c.Chain, want.Chain) {
					t.Fatalf("context %d differs: %+v vs %+v", i, c, want)
				}
			}

			checkRawGraphsEqual(t, prof, got)

			// A recorded trace is read in memory by the hot-data-streams
			// analysis and never serialised.
			if got.Trace != nil {
				t.Errorf("decoded profile carries a trace of %d refs", got.Trace.Len())
			}

			// The strongest round-trip property: re-encoding the decoded
			// profile reproduces the image byte for byte.
			img2, err := Encode(got)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(img, img2) {
				t.Errorf("re-encoded image differs (%d vs %d bytes)", len(img), len(img2))
			}
		})
	}
}

func checkRawGraphsEqual(t *testing.T, want, got *profile.Profile) {
	t.Helper()
	wg, gg := want.RawGraph, got.RawGraph
	if wg.TotalAccesses() != gg.TotalAccesses() {
		t.Errorf("raw graph total = %d, want %d", gg.TotalAccesses(), wg.TotalAccesses())
	}
	wantNodes, gotNodes := wg.Nodes(), gg.Nodes()
	if !reflect.DeepEqual(wantNodes, gotNodes) {
		t.Fatalf("raw graph nodes differ: %v vs %v", gotNodes, wantNodes)
	}
	for _, c := range wantNodes {
		if wg.Accesses(c) != gg.Accesses(c) {
			t.Errorf("raw graph accesses(ctx%d) = %d, want %d", c, gg.Accesses(c), wg.Accesses(c))
		}
	}
	wantEdges, gotEdges := wg.Edges(), gg.Edges()
	if !reflect.DeepEqual(wantEdges, gotEdges) {
		t.Fatalf("raw graph edges differ: %v vs %v", gotEdges, wantEdges)
	}
	for _, e := range wantEdges {
		if w, g := wg.Weight(e.U, e.V), gg.Weight(e.U, e.V); w != g {
			t.Errorf("raw graph weight(%d,%d) = %d, want %d", e.U, e.V, g, w)
		}
	}
}

func TestEncodeDeterministic(t *testing.T) {
	prof := profileWorkload(t, "art", 7, true)
	a, err := Encode(prof)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Encode(prof)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two encodings of one profile differ")
	}
}

func TestDecodeCorrupt(t *testing.T) {
	prof := profileWorkload(t, "povray", 7, false)
	img, err := Encode(prof)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("bitflips", func(t *testing.T) {
		// The CRC catches any single-byte corruption; sample positions
		// across the image, including the trailing checksum itself.
		stride := len(img)/257 + 1
		for pos := 0; pos < len(img); pos += stride {
			bad := append([]byte(nil), img...)
			bad[pos] ^= 0x41
			if _, err := Decode(bad); err == nil {
				t.Fatalf("corruption at byte %d/%d not detected", pos, len(img))
			}
		}
		for pos := len(img) - 4; pos < len(img); pos++ {
			bad := append([]byte(nil), img...)
			bad[pos] ^= 0x41
			if _, err := Decode(bad); err == nil {
				t.Fatalf("checksum corruption at byte %d not detected", pos)
			}
		}
	})

	t.Run("truncation", func(t *testing.T) {
		stride := len(img)/257 + 1
		for n := 0; n < len(img); n += stride {
			if _, err := Decode(img[:n]); err == nil {
				t.Fatalf("truncation to %d/%d bytes not detected", n, len(img))
			}
		}
	})

	t.Run("trailing-garbage", func(t *testing.T) {
		if _, err := Decode(append(append([]byte(nil), img...), 0, 1, 2)); err == nil {
			t.Fatal("trailing bytes not detected")
		}
	})

	t.Run("empty", func(t *testing.T) {
		if _, err := Decode(nil); err == nil {
			t.Fatal("empty image not detected")
		}
	})
}

// TestDecodeForgedCounts crafts tiny images with valid checksums that
// claim enormous element counts; Decode must reject them from the count
// alone instead of allocating.
func TestDecodeForgedCounts(t *testing.T) {
	for name, img := range map[string][]byte{
		"contexts": forge(func(buf *bytes.Buffer) {
			writeUvarint(buf, maxContexts) // claims 4M contexts in ~30 bytes
		}),
		"graph-nodes": forge(func(buf *bytes.Buffer) {
			writeUvarint(buf, 0) // contexts
			writeUvarint(buf, maxNodes)
		}),
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := Decode(img); err == nil {
				t.Fatalf("forged %s count accepted", name)
			}
		})
	}
}

// forge builds a current-version image of a program named "forged", with
// zero run statistics and a valid checksum, whose sections after the
// statistics are whatever build writes.
func forge(build func(buf *bytes.Buffer)) []byte {
	var buf bytes.Buffer
	buf.WriteString(magic)
	writeUvarint(&buf, version)
	writeString(&buf, "forged")
	writeUvarint(&buf, 0) // TotalAllocs
	writeUvarint(&buf, 0) // TrackedAllocs
	writeUvarint(&buf, 0) // PeakLive
	build(&buf)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(buf.Bytes()))
	buf.Write(crc[:])
	return buf.Bytes()
}

// forgeGraph forges an image of two contexts and a graph
// section listing nodes as (ctx, accesses) and edges as (u, v, weight)
// pairs in the order given.
func forgeGraph(nodes [][2]uint64, edges [][3]uint64) []byte {
	return forge(func(buf *bytes.Buffer) {
		writeUvarint(buf, 2) // contexts
		for fn := range 2 {
			writeUvarint(buf, 1) // chain length
			writeVarint(buf, int64(fn))
			writeUvarint(buf, uint64(4+8*fn)) // site
			writeUvarint(buf, 1)              // allocs
		}
		writeUvarint(buf, uint64(len(nodes)))
		for _, n := range nodes {
			writeUvarint(buf, n[0])
			writeUvarint(buf, n[1])
		}
		writeUvarint(buf, uint64(len(edges)))
		for _, e := range edges {
			writeUvarint(buf, e[0])
			writeUvarint(buf, e[1])
			writeUvarint(buf, e[2])
		}
	})
}

// nonCanonicalGraphs are images of valid graphs whose graph section is not
// in the order Encode writes: each would decode to a profile that
// re-encodes to other bytes, so one profile would have several images.
var nonCanonicalGraphs = []struct {
	name string
	img  []byte
}{
	{"node-repeated", forgeGraph([][2]uint64{{0, 5}, {0, 7}}, nil)},
	{"nodes-descending", forgeGraph([][2]uint64{{1, 3}, {0, 5}}, nil)},
	{"edges-unsorted", forgeGraph([][2]uint64{{0, 5}, {1, 3}}, [][3]uint64{{1, 1, 2}, {0, 1, 4}})},
	{"edge-repeated", forgeGraph([][2]uint64{{0, 5}, {1, 3}}, [][3]uint64{{0, 1, 2}, {0, 1, 2}})},
	{"edge-reversed", forgeGraph([][2]uint64{{0, 5}, {1, 3}}, [][3]uint64{{1, 0, 4}})},
	{"endpoint-unlisted", forgeGraph([][2]uint64{{0, 5}}, [][3]uint64{{0, 1, 4}})},
}

// TestDecodeRejectsNonCanonicalGraph: Decode accepts a graph section only
// in the order Encode writes it, so a profile has one image and halod one
// content address for it. The same graph in canonical order is accepted
// and re-encodes to its own bytes.
func TestDecodeRejectsNonCanonicalGraph(t *testing.T) {
	canonical := forgeGraph([][2]uint64{{0, 5}, {1, 3}}, [][3]uint64{{0, 1, 4}, {1, 1, 2}})
	p, err := Decode(canonical)
	if err != nil {
		t.Fatalf("canonical image rejected: %v", err)
	}
	if img, err := Encode(p); err != nil || !bytes.Equal(img, canonical) {
		t.Fatalf("canonical image re-encodes to other bytes (%v)", err)
	}
	for _, tc := range nonCanonicalGraphs {
		if _, err := Decode(tc.img); err == nil {
			t.Errorf("%s: non-canonical graph section accepted", tc.name)
		}
	}
}

// version1Image encodes a small profile in the retired version-1 format,
// which carried each context's allocation-serial log.
func version1Image() []byte {
	var buf bytes.Buffer
	buf.WriteString(magic)
	writeUvarint(&buf, 1)
	writeString(&buf, "v1")
	writeUvarint(&buf, 2) // TotalAllocs
	writeUvarint(&buf, 2) // TrackedAllocs
	writeUvarint(&buf, 1) // PeakLive
	writeUvarint(&buf, 1) // one context
	writeUvarint(&buf, 1) // chain length
	writeVarint(&buf, int64(profile.AllocFn))
	writeUvarint(&buf, 12) // site
	writeUvarint(&buf, 2)  // allocs
	writeUvarint(&buf, 2)  // serial count
	writeUvarint(&buf, 1)  // serials 1, 3 delta-coded
	writeUvarint(&buf, 2)
	for range 2 { // empty filtered and raw graphs
		writeUvarint(&buf, 0)
		writeUvarint(&buf, 0)
		writeUvarint(&buf, 0)
	}
	writeUvarint(&buf, 0) // trace
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(buf.Bytes()))
	buf.Write(crc[:])
	return buf.Bytes()
}

// withVersion returns img, a current-version image, relabelled as version
// v (a one-byte uvarint, as the current version is) under a recomputed
// checksum: a well-formed image only its version number can reject.
func withVersion(img []byte, v byte) []byte {
	out := bytes.Clone(img)
	out[len(magic)] = v
	binary.LittleEndian.PutUint32(out[len(out)-4:], crc32.ChecksumIEEE(out[:len(out)-4]))
	return out
}

// version3Image returns img, a current-version image, as the retired
// version 3 wrote it: with a trailing reference-trace section, here one
// ref (serial 1, site 12, 16 bytes), under a recomputed checksum.
func version3Image(img []byte) []byte {
	out := withVersion(img, 3)
	out = append(out[:len(out)-4], 1, 1, 12, 16)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

// TestDecodeRejectsVersion1 checks that images of the retired formats are
// refused by their version number rather than misread: version 1 (serial
// logs), version 2 (a stored filtered graph and per-graph totals) and
// version 3 (a reference-trace section).
func TestDecodeRejectsVersion1(t *testing.T) {
	img, err := Encode(profileWorkload(t, "art", 3, false))
	if err != nil {
		t.Fatal(err)
	}
	for v, old := range map[int][]byte{1: version1Image(), 2: withVersion(img, 2), 3: version3Image(img)} {
		_, err := Decode(old)
		if want := fmt.Sprintf("unsupported version %d", v); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("version-%d image: err = %v, want %s", v, err, want)
		}
	}
}

func TestMergeDeterministic(t *testing.T) {
	a := profileWorkload(t, "art", 3, false)
	b := profileWorkload(t, "art", 5, false)
	c := profileWorkload(t, "art", 11, false)

	ab, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := Merge(b, a)
	if err != nil {
		t.Fatal(err)
	}
	imgAB, err := Encode(ab)
	if err != nil {
		t.Fatal(err)
	}
	imgBA, err := Encode(ba)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(imgAB, imgBA) {
		t.Fatal("merge(A,B) and merge(B,A) encode differently")
	}

	abc, err := Merge(a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	cba, err := Merge(c, b, a)
	if err != nil {
		t.Fatal(err)
	}
	imgABC, err := Encode(abc)
	if err != nil {
		t.Fatal(err)
	}
	imgCBA, err := Encode(cba)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(imgABC, imgCBA) {
		t.Fatal("three-way merges in different orders encode differently")
	}
}

func TestMergeSums(t *testing.T) {
	a := profileWorkload(t, "art", 3, false)
	b := profileWorkload(t, "art", 5, false)
	m, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if m.TotalAllocs != a.TotalAllocs+b.TotalAllocs {
		t.Errorf("TotalAllocs = %d, want %d", m.TotalAllocs, a.TotalAllocs+b.TotalAllocs)
	}
	if m.TrackedAllocs != a.TrackedAllocs+b.TrackedAllocs {
		t.Errorf("TrackedAllocs = %d, want %d", m.TrackedAllocs, a.TrackedAllocs+b.TrackedAllocs)
	}
	if got, want := m.RawGraph.TotalAccesses(), a.RawGraph.TotalAccesses()+b.RawGraph.TotalAccesses(); got != want {
		t.Errorf("merged raw accesses = %d, want %d", got, want)
	}
	// Per-context allocation counts add across runs, matched by chain.
	set := profile.NewContextSet()
	for _, c := range m.Contexts {
		set.Intern(c.Chain)
	}
	var checked int
	for _, c := range a.Contexts {
		mc := set.Lookup(c.Chain)
		if mc == nil {
			t.Fatalf("merged profile lost context %v", c.Chain)
		}
		want := c.Allocs
		for _, bc := range b.Contexts {
			if profile.ChainKey(bc.Chain) == profile.ChainKey(c.Chain) {
				want += bc.Allocs
			}
		}
		if m.Contexts[mc.ID].Allocs != want {
			t.Fatalf("context %v allocs = %d, want %d", c.Chain, m.Contexts[mc.ID].Allocs, want)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no contexts checked")
	}
	// Traces deliberately do not survive merging.
	if m.Trace != nil {
		t.Fatal("merged profile carries a trace")
	}
}

func TestMergeValidation(t *testing.T) {
	if _, err := Merge(); err == nil {
		t.Fatal("empty merge did not fail")
	}
	a := profileWorkload(t, "art", 3, false)
	p := profileWorkload(t, "povray", 3, false)
	if _, err := Merge(a, p); err == nil {
		t.Fatal("cross-program merge did not fail")
	}
	if _, err := Merge(a, nil); err == nil {
		t.Fatal("nil profile merge did not fail")
	}
	// A single input is validated as each of several would be.
	if _, err := Merge(nil); err == nil {
		t.Fatal("single nil profile did not fail")
	}
	noRaw := *a
	noRaw.RawGraph = nil
	if _, err := Merge(&noRaw); err == nil {
		t.Fatal("single profile without a raw graph did not fail")
	}
}

// TestMergeSingleKeepsProfile: one profile has nothing to merge, so the
// result re-encodes to the profile's own image, context numbering included,
// and keeps its in-memory trace. It is a copy: setting its fields leaves
// the input as it was.
func TestMergeSingleKeepsProfile(t *testing.T) {
	for _, trace := range []bool{false, true} {
		p := profileWorkload(t, "art", 3, trace)
		want, err := Encode(p)
		if err != nil {
			t.Fatal(err)
		}
		one, err := Merge(p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Encode(one)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("trace=%v: single-profile merge encodes to %d bytes, the profile to %d",
				trace, len(got), len(want))
		}
		if one.Trace != p.Trace {
			t.Fatalf("trace=%v: single-profile merge dropped the trace", trace)
		}
		one.Trace, one.Prog, one.RawGraph = nil, nil, nil
		if after, err := Encode(p); err != nil || !bytes.Equal(after, want) {
			t.Fatalf("trace=%v: setting fields of the merge result wrote to its input (%v)", trace, err)
		}
	}
}
