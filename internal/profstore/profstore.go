// Package profstore persists profiles. It defines the versioned binary
// format that training runs ship their results in (the reproduction's
// analogue of perf.data / BOLT's fdata files) and the deterministic merge
// that combines profiles from independent runs — different seeds, different
// scales, different machines — into one profile for grouping.
//
// The format is deliberately byte-deterministic: encoding the same profile
// always yields the same image, and merging the same set of profiles yields
// the same image regardless of argument order. That property is what lets
// the optimization service (internal/service) content-address profiles and
// reuse cached artifacts across identical requests.
package profstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"halo/internal/affinity"
	"halo/internal/isa"
	"halo/internal/profile"
)

// Image format. A profile is serialised as:
//
//	magic    "HPRO"
//	version  uvarint (currently 4; Decode rejects any other)
//	name     string (uvarint length + bytes): program name
//	stats    uvarint TotalAllocs, TrackedAllocs, PeakLive
//	contexts uvarint count, then per context:
//	           uvarint chain length; per entry varint Fn, uvarint Site
//	           uvarint Allocs
//	graph    the unfiltered affinity graph (see below)
//	crc      4-byte little-endian IEEE CRC-32 of every preceding byte
//
// and the graph as:
//
//	nodes    uvarint count; (uvarint ctx, uvarint accesses) strictly
//	         ascending by ctx, every edge endpoint listed
//	edges    uvarint count; (uvarint u, uvarint v, uvarint weight) with
//	         u <= v, strictly ascending by (u, v)
//
// Decode accepts only that canonical order, so one graph has exactly one
// image. An image holds only what the run observed. The graph's total
// access count is the sum of its nodes' accesses, so it is derived on
// decode, not stored; the coverage-filtered graph grouping reads is
// derived from the raw one in synthesis (group.Filter). The reference
// trace a traced run records (profile.Trace) is read in memory by the
// hot-data-streams analysis and is not part of the image: version 3 held
// it, and is refused.
const (
	magic   = "HPRO"
	version = 4
)

// Plausibility caps mirroring internal/isa's decoder. Beyond these static
// caps, every decoded count is also bounded by the bytes actually present
// in the image (reader.canHold), so a tiny forged image cannot demand a
// huge allocation even with a valid checksum.
const (
	maxContexts = 1 << 22
	maxChainLen = 1 << 16
	maxNodes    = 1 << 22
	maxEdges    = 1 << 26
)

// Encode serialises a profile to its binary image. The profile's program is
// recorded by name only; Decode returns a profile with Prog == nil.
func Encode(p *profile.Profile) ([]byte, error) {
	if p == nil {
		return nil, fmt.Errorf("profstore: encode: nil profile")
	}
	if p.RawGraph == nil {
		return nil, fmt.Errorf("profstore: encode: profile has no raw affinity graph")
	}
	name := progName(p)
	var buf bytes.Buffer
	buf.WriteString(magic)
	writeUvarint(&buf, version)
	writeString(&buf, name)
	writeUvarint(&buf, p.TotalAllocs)
	writeUvarint(&buf, p.TrackedAllocs)
	writeUvarint(&buf, uint64(p.PeakLive))
	writeUvarint(&buf, uint64(len(p.Contexts)))
	for _, c := range p.Contexts {
		writeUvarint(&buf, uint64(len(c.Chain)))
		for _, e := range c.Chain {
			writeVarint(&buf, int64(e.Fn))
			writeUvarint(&buf, uint64(e.Site))
		}
		writeUvarint(&buf, c.Allocs)
	}
	encodeGraph(&buf, p.RawGraph)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(buf.Bytes()))
	buf.Write(crc[:])
	return buf.Bytes(), nil
}

// Decode parses a profile image, verifying its checksum and structure. The
// returned profile has Prog == nil and ProgName set. The pipeline takes the
// program as its own argument; only DescribeTop reads Prog.
func Decode(image []byte) (*profile.Profile, error) {
	if len(image) < len(magic)+4 {
		return nil, fmt.Errorf("profstore: image too short (%d bytes)", len(image))
	}
	body, tail := image[:len(image)-4], image[len(image)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(tail); got != want {
		return nil, fmt.Errorf("profstore: checksum mismatch (image corrupt)")
	}
	r := &reader{buf: body}
	if string(r.bytes(4)) != magic {
		return nil, fmt.Errorf("profstore: bad magic")
	}
	if v := r.uvarint(); v != version {
		return nil, fmt.Errorf("profstore: unsupported version %d", v)
	}
	p := &profile.Profile{}
	p.ProgName = r.string()
	p.TotalAllocs = r.uvarint()
	p.TrackedAllocs = r.uvarint()
	p.PeakLive = int(r.uvarint())
	nc := r.uvarint()
	if nc > maxContexts || !r.canHold(nc, 2) {
		return nil, fmt.Errorf("profstore: implausible context count %d", nc)
	}
	set := profile.NewContextSet()
	for i := uint64(0); i < nc; i++ {
		clen := r.uvarint()
		if clen > maxChainLen || !r.canHold(clen, 2) {
			return nil, fmt.Errorf("profstore: implausible chain length %d", clen)
		}
		chain := make([]profile.ChainEntry, clen)
		for j := range chain {
			chain[j] = profile.ChainEntry{
				Fn:   int32(r.varint()),
				Site: isa.Addr(r.uvarint()),
			}
		}
		c := set.Intern(chain)
		if int(c.ID) != int(i) {
			return nil, fmt.Errorf("profstore: duplicate context chain at index %d", i)
		}
		c.Allocs = r.uvarint()
	}
	p.Contexts = set.List()
	var err error
	if p.RawGraph, err = decodeGraph(r, nc); err != nil {
		return nil, err
	}
	if r.err != nil {
		return nil, fmt.Errorf("profstore: truncated image: %w", r.err)
	}
	if r.pos != len(body) {
		return nil, fmt.Errorf("profstore: %d trailing bytes", len(body)-r.pos)
	}
	return p, nil
}

// Save encodes a profile to a file.
func Save(path string, p *profile.Profile) error {
	img, err := Encode(p)
	if err != nil {
		return err
	}
	return os.WriteFile(path, img, 0o644)
}

// Load reads and decodes a profile file.
func Load(path string) (*profile.Profile, error) {
	img, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(img)
}

func encodeGraph(buf *bytes.Buffer, g *affinity.Graph) {
	nodes := g.Nodes()
	writeUvarint(buf, uint64(len(nodes)))
	for _, c := range nodes {
		writeUvarint(buf, uint64(c))
		writeUvarint(buf, g.Accesses(c))
	}
	edges := g.Edges()
	writeUvarint(buf, uint64(len(edges)))
	for _, e := range edges {
		writeUvarint(buf, uint64(e.U))
		writeUvarint(buf, uint64(e.V))
		writeUvarint(buf, g.Weight(e.U, e.V))
	}
}

func decodeGraph(r *reader, ncontexts uint64) (*affinity.Graph, error) {
	g := affinity.NewGraph()
	start := r.pos
	nn := r.uvarint()
	if nn > maxNodes || !r.canHold(nn, 2) {
		return nil, fmt.Errorf("profstore: implausible graph node count %d", nn)
	}
	for i := uint64(0); i < nn; i++ {
		c := r.uvarint()
		if c >= ncontexts {
			return nil, fmt.Errorf("profstore: graph node ctx%d out of range (%d contexts)", c, ncontexts)
		}
		g.AddAccesses(affinity.Ctx(c), r.uvarint())
	}
	ne := r.uvarint()
	if ne > maxEdges || !r.canHold(ne, 3) {
		return nil, fmt.Errorf("profstore: implausible graph edge count %d", ne)
	}
	for i := uint64(0); i < ne; i++ {
		u, v := r.uvarint(), r.uvarint()
		if u >= ncontexts || v >= ncontexts {
			return nil, fmt.Errorf("profstore: graph edge (%d,%d) out of range (%d contexts)", u, v, ncontexts)
		}
		g.AddEdge(affinity.Ctx(u), affinity.Ctx(v), r.uvarint())
	}
	if r.err != nil {
		return nil, fmt.Errorf("profstore: truncated image: %w", r.err)
	}
	// A graph has one image: repeated, unsorted or unlisted entries would
	// decode to the graph of another.
	var canon bytes.Buffer
	encodeGraph(&canon, g)
	if !bytes.Equal(canon.Bytes(), r.buf[start:r.pos]) {
		return nil, fmt.Errorf("profstore: graph section is not in canonical order")
	}
	return g, nil
}

func writeUvarint(buf *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	buf.Write(tmp[:binary.PutUvarint(tmp[:], v)])
}

func writeVarint(buf *bytes.Buffer, v int64) {
	var tmp [binary.MaxVarintLen64]byte
	buf.Write(tmp[:binary.PutVarint(tmp[:], v)])
}

func writeString(buf *bytes.Buffer, s string) {
	writeUvarint(buf, uint64(len(s)))
	buf.WriteString(s)
}

type reader struct {
	buf []byte
	pos int
	err error
}

// canHold reports whether the unread input could possibly contain n
// elements of at least minBytes encoded bytes each — the guard that keeps
// forged counts from forcing allocations larger than the image itself.
func (r *reader) canHold(n uint64, minBytes int) bool {
	return n <= uint64(len(r.buf)-r.pos)/uint64(minBytes)
}

func (r *reader) bytes(n int) []byte {
	if r.err != nil {
		return make([]byte, n)
	}
	if r.pos+n > len(r.buf) {
		r.err = io.ErrUnexpectedEOF
		return make([]byte, n)
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		r.err = io.ErrUnexpectedEOF
		return 0
	}
	r.pos += n
	return v
}

func (r *reader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.pos:])
	if n <= 0 {
		r.err = io.ErrUnexpectedEOF
		return 0
	}
	r.pos += n
	return v
}

func (r *reader) string() string {
	n := r.uvarint()
	if r.err != nil || n > uint64(len(r.buf)-r.pos) {
		r.err = io.ErrUnexpectedEOF
		return ""
	}
	return string(r.bytes(int(n)))
}
