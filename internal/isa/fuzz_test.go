package isa_test

import (
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"

	"halo/internal/isa"
	"halo/internal/workloads"
)

// hostileImage is a well-formed header for one empty-named function that
// claims 1<<24 instructions and then ends: about 20 bytes that, decoded
// naively, would demand a 512 MiB instruction slice.
func hostileImage() []byte {
	img := []byte("HBIN")
	for _, v := range []uint64{
		1,       // version
		0,       // name length
		0, 0, 0, // entry, globals, nsynth
		1,       // nfuncs
		0,       // function name length
		0, 0, 0, // flags, nparams, nregs
		1 << 24, // ninsts
	} {
		img = binary.AppendUvarint(img, v)
	}
	return img
}

func TestDecodeRejectsHostileCountsCheaply(t *testing.T) {
	img := hostileImage()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := isa.Decode(img)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("image claiming 1<<24 instructions decoded without error")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("rejecting a %d-byte image allocated %d bytes", len(img), grew)
	}
}

// FuzzProgramDecode feeds arbitrary bytes to isa.Decode, the parser behind
// halod's program upload. Any input must either be rejected or decode to a
// program that re-encodes and decodes back to an equal program.
func FuzzProgramDecode(f *testing.F) {
	for _, w := range workloads.All() {
		img, err := w.Build(w.TestScale).Encode()
		if err != nil {
			f.Fatalf("%s: encoding seed program: %v", w.Name, err)
		}
		f.Add(img)
	}
	f.Add(hostileImage())

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := isa.Decode(data)
		if err != nil {
			return // rejected: a fine outcome for arbitrary bytes
		}
		enc, err := p.Encode()
		if err != nil {
			t.Fatalf("decoded program failed to re-encode: %v", err)
		}
		p2, err := isa.Decode(enc)
		if err != nil {
			t.Fatalf("re-encoded image failed to decode: %v", err)
		}
		if !reflect.DeepEqual(p, p2) {
			t.Fatal("program changed across an encode/decode round trip")
		}
	})
}
