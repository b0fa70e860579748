package isa

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
)

// Binary image format. A program is serialised as:
//
//	magic   "HBIN"
//	version uvarint
//	name    string (uvarint length + bytes)
//	entry   uvarint
//	globals uvarint
//	nsynth  uvarint (next synthetic address)
//	nfuncs  uvarint
//	funcs   ...
//
// and each function as:
//
//	name    string
//	flags   uvarint (bit 0: Lib)
//	nparams uvarint
//	nregs   uvarint
//	ninsts  uvarint
//	insts   op, a, b, c, d, size bytes; fn varint; imm varint; addr uvarint
//
// The format exists so the post-link story is genuine: the rewriter and the
// halo CLI exchange program *images*, not in-memory structures, just as
// BOLT consumes and emits ELF files.

const (
	magic   = "HBIN"
	version = 1

	// The smallest encodings of a function (one byte each for the name
	// length, flags, nparams, nregs and ninsts) and of an instruction (six
	// operand bytes plus one byte each for fn, imm and addr). Decode
	// rejects counts the remaining bytes cannot hold before allocating for
	// them, so a tiny hostile header cannot demand a huge allocation.
	minFuncBytes = 5
	minInstBytes = 9
)

// Encode serialises the program to its binary image. The program must
// validate; Encode refuses to emit a malformed binary.
func (p *Program) Encode() ([]byte, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("isa: encode: %w", err)
	}
	var buf bytes.Buffer
	buf.WriteString(magic)
	writeUvarint(&buf, version)
	writeString(&buf, p.Name)
	writeUvarint(&buf, uint64(p.Entry))
	writeUvarint(&buf, uint64(p.Globals))
	writeUvarint(&buf, uint64(p.nextSynth))
	writeUvarint(&buf, uint64(len(p.Funcs)))
	for _, f := range p.Funcs {
		writeString(&buf, f.Name)
		var flags uint64
		if f.Lib {
			flags |= 1
		}
		writeUvarint(&buf, flags)
		writeUvarint(&buf, uint64(f.NParams))
		writeUvarint(&buf, uint64(f.NRegs))
		writeUvarint(&buf, uint64(len(f.Code)))
		for _, in := range f.Code {
			buf.Write([]byte{byte(in.Op), in.A, in.B, in.C, in.D, in.Size})
			writeVarint(&buf, int64(in.Fn))
			writeVarint(&buf, in.Imm)
			writeUvarint(&buf, uint64(in.Addr))
		}
	}
	return buf.Bytes(), nil
}

// Decode parses a binary image produced by Encode and validates it.
func Decode(image []byte) (*Program, error) {
	r := &reader{buf: image}
	if string(r.bytes(4)) != magic {
		return nil, fmt.Errorf("isa: bad magic")
	}
	if v := r.uvarint(); v != version {
		return nil, fmt.Errorf("isa: unsupported version %d", v)
	}
	p := &Program{}
	p.Name = r.string()
	p.Entry = int(r.uvarint())
	p.Globals = int(r.uvarint())
	p.nextSynth = Addr(r.uvarint())
	nf := r.uvarint()
	if nf > 1<<20 || nf > r.remaining()/minFuncBytes {
		return nil, fmt.Errorf("isa: implausible function count %d", nf)
	}
	p.Funcs = make([]*Func, 0, nf)
	for i := uint64(0); i < nf; i++ {
		f := &Func{}
		f.Name = r.string()
		flags := r.uvarint()
		f.Lib = flags&1 != 0
		f.NParams = int(r.uvarint())
		f.NRegs = int(r.uvarint())
		ni := r.uvarint()
		if ni > 1<<24 || ni > r.remaining()/minInstBytes {
			return nil, fmt.Errorf("isa: implausible instruction count %d", ni)
		}
		f.Code = make([]Inst, ni)
		for j := range f.Code {
			raw := r.bytes(6)
			if r.err != nil {
				return nil, fmt.Errorf("isa: truncated image: %w", r.err)
			}
			f.Code[j] = Inst{
				Op: Opcode(raw[0]), A: raw[1], B: raw[2], C: raw[3], D: raw[4], Size: raw[5],
				Fn:   FnRef(r.varint()),
				Imm:  r.varint(),
				Addr: Addr(r.uvarint()),
			}
		}
		p.Funcs = append(p.Funcs, f)
	}
	if r.err != nil {
		return nil, fmt.Errorf("isa: truncated image: %w", r.err)
	}
	if r.pos != len(image) {
		return nil, fmt.Errorf("isa: %d trailing bytes", len(image)-r.pos)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("isa: decode: %w", err)
	}
	return p, nil
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

// remaining reports the unread byte count.
func (r *reader) remaining() uint64 { return uint64(len(r.buf) - r.pos) }

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
	if n > uint64(len(r.buf)-r.pos) {
		r.err = io.ErrUnexpectedEOF
		return ""
	}
	return string(r.bytes(int(n)))
}
