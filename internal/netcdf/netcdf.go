// Package netcdf implements a writer and reader for a subset of the
// NetCDF classic binary format (CDF-1): fixed-size dimensions, one
// unlimited (record) dimension with interleaved record storage, global
// and per-variable attributes, and byte/char/short/int/float/double
// variables.
//
// The format follows the published classic file specification: a
// big-endian header (magic "CDF\x01", numrecs, dim list, global
// attribute list, variable list with data offsets) followed by variable
// data, each section padded to 4-byte boundaries.
package netcdf

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Type is a NetCDF external data type.
type Type int32

// NetCDF classic external types.
const (
	Byte   Type = 1
	Char   Type = 2
	Short  Type = 3
	Int    Type = 4
	Float  Type = 5
	Double Type = 6
)

// Size returns the size of one element in bytes.
func (t Type) Size() int {
	switch t {
	case Byte, Char:
		return 1
	case Short:
		return 2
	case Int, Float:
		return 4
	case Double:
		return 8
	}
	return 0
}

func (t Type) String() string {
	switch t {
	case Byte:
		return "byte"
	case Char:
		return "char"
	case Short:
		return "short"
	case Int:
		return "int"
	case Float:
		return "float"
	case Double:
		return "double"
	}
	return fmt.Sprintf("type(%d)", int32(t))
}

// List tags in the classic header.
const (
	tagDimension int32 = 0x0A
	tagVariable  int32 = 0x0B
	tagAttribute int32 = 0x0C
)

// Dim is a named fixed-size dimension.
type Dim struct {
	Name string
	Len  int
}

// Attr is a named attribute. Exactly one of Str or Nums is used: Str for
// Char attributes, Nums (as float64) for all numeric types.
type Attr struct {
	Name string
	Type Type
	Str  string
	Nums []float64
}

// StrAttr builds a char attribute.
func StrAttr(name, value string) Attr {
	return Attr{Name: name, Type: Char, Str: value}
}

// Var is a variable over zero or more dimensions. Data is stored as
// float64 regardless of external type (Char variables use Text instead).
type Var struct {
	Name  string
	Type  Type
	Dims  []int // indexes into File.Dims
	Attrs []Attr
	Data  []float64
	Text  string // for Char variables
}

// File is an in-memory NetCDF classic dataset.
type File struct {
	Dims  []Dim
	Attrs []Attr // global attributes
	Vars  []Var
}

// AddDim appends a dimension and returns its id.
func (f *File) AddDim(name string, length int) int {
	f.Dims = append(f.Dims, Dim{Name: name, Len: length})
	return len(f.Dims) - 1
}

// AddVar appends a variable and returns its index.
func (f *File) AddVar(v Var) int {
	f.Vars = append(f.Vars, v)
	return len(f.Vars) - 1
}

// elemCount returns the number of elements in v given the file dims.
func (f *File) elemCount(v *Var) (int, error) {
	n := 1
	for _, di := range v.Dims {
		if di < 0 || di >= len(f.Dims) {
			return 0, fmt.Errorf("netcdf: variable %q references bad dim id %d", v.Name, di)
		}
		n *= f.Dims[di].Len
		if n < 0 || n > 1<<40 {
			return 0, fmt.Errorf("netcdf: variable %q element count overflow", v.Name)
		}
	}
	return n, nil
}

func pad4(n int) int { return (n + 3) &^ 3 }

// --- encoding ---------------------------------------------------------

type writer struct {
	buf []byte
}

func (w *writer) i32(v int32) {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], uint32(v))
	w.buf = append(w.buf, b[:]...)
}

func (w *writer) name(s string) {
	w.i32(int32(len(s)))
	w.buf = append(w.buf, s...)
	for len(w.buf)%4 != 0 {
		w.buf = append(w.buf, 0)
	}
}

func (w *writer) attrValues(a Attr) error {
	switch a.Type {
	case Char:
		w.i32(int32(len(a.Str)))
		w.buf = append(w.buf, a.Str...)
		for len(w.buf)%4 != 0 {
			w.buf = append(w.buf, 0)
		}
	case Byte, Short, Int, Float, Double:
		w.i32(int32(len(a.Nums)))
		for _, v := range a.Nums {
			w.value(a.Type, v)
		}
		for len(w.buf)%4 != 0 {
			w.buf = append(w.buf, 0)
		}
	default:
		return fmt.Errorf("netcdf: attribute %q has unsupported type %v", a.Name, a.Type)
	}
	return nil
}

func (w *writer) value(t Type, v float64) {
	switch t {
	case Byte:
		w.buf = append(w.buf, byte(int8(v)))
	case Char:
		w.buf = append(w.buf, byte(v))
	case Short:
		var b [2]byte
		binary.BigEndian.PutUint16(b[:], uint16(int16(v)))
		w.buf = append(w.buf, b[:]...)
	case Int:
		w.i32(int32(v))
	case Float:
		w.i32(int32(math.Float32bits(float32(v))))
	case Double:
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], math.Float64bits(v))
		w.buf = append(w.buf, b[:]...)
	}
}

func (w *writer) attrList(attrs []Attr) error {
	if len(attrs) == 0 {
		w.i32(0) // ABSENT: zero tag
		w.i32(0)
		return nil
	}
	w.i32(tagAttribute)
	w.i32(int32(len(attrs)))
	for _, a := range attrs {
		w.name(a.Name)
		w.i32(int32(a.Type))
		if err := w.attrValues(a); err != nil {
			return err
		}
	}
	return nil
}

// recordDim returns the index of the unlimited dimension (Len == 0),
// or -1. At most one is allowed, as in the classic format.
func (f *File) recordDim() (int, error) {
	rec := -1
	for i, d := range f.Dims {
		if d.Len == 0 {
			if rec >= 0 {
				return 0, fmt.Errorf("netcdf: multiple record dimensions (%q and %q)", f.Dims[rec].Name, d.Name)
			}
			rec = i
		}
	}
	return rec, nil
}

// isRecordVar reports whether v varies along the record dimension
// (which, per the classic format, must be its first dimension).
func (f *File) isRecordVar(v *Var, recDim int) (bool, error) {
	if recDim < 0 {
		return false, nil
	}
	for i, di := range v.Dims {
		if di == recDim {
			if i != 0 {
				return false, fmt.Errorf("netcdf: variable %q uses the record dimension in position %d (must be first)", v.Name, i)
			}
			return true, nil
		}
	}
	return false, nil
}

// recSize returns the number of elements in one record of v.
func (f *File) recSize(v *Var) (int, error) {
	n := 1
	for _, di := range v.Dims[1:] {
		if di < 0 || di >= len(f.Dims) {
			return 0, fmt.Errorf("netcdf: variable %q references bad dim id %d", v.Name, di)
		}
		n *= f.Dims[di].Len
		if n < 0 || n > 1<<40 {
			return 0, fmt.Errorf("netcdf: variable %q record size overflow", v.Name)
		}
	}
	return n, nil
}

// dataLen returns the element count held by a variable's payload.
func (v *Var) dataLen() int {
	if v.Type == Char {
		return len(v.Text)
	}
	return len(v.Data)
}

// Encode serializes the dataset to CDF-1 bytes, supporting one
// unlimited (record) dimension: variables whose first dimension is the
// record dimension are stored as interleaved per-record slabs after the
// fixed-size variables.
func (f *File) Encode() ([]byte, error) {
	recDim, err := f.recordDim()
	if err != nil {
		return nil, err
	}

	// First pass: classify variables and compute sizes. vsize for fixed
	// vars is the padded full payload; for record vars it is the padded
	// size of ONE record (unpadded when there is exactly one record var,
	// per the classic-format special case).
	vsizes := make([]int, len(f.Vars))
	isRec := make([]bool, len(f.Vars))
	recSizes := make([]int, len(f.Vars)) // elements per record
	numrecs := -1
	recVarCount := 0
	for i := range f.Vars {
		v := &f.Vars[i]
		rec, err := f.isRecordVar(v, recDim)
		if err != nil {
			return nil, err
		}
		if rec {
			recVarCount++
		}
	}
	for i := range f.Vars {
		v := &f.Vars[i]
		if v.Type.Size() == 0 {
			return nil, fmt.Errorf("netcdf: variable %q has unsupported type %v", v.Name, v.Type)
		}
		rec, _ := f.isRecordVar(v, recDim)
		isRec[i] = rec
		if rec {
			rs, err := f.recSize(v)
			if err != nil {
				return nil, err
			}
			if rs == 0 {
				return nil, fmt.Errorf("netcdf: record variable %q has zero record size", v.Name)
			}
			recSizes[i] = rs
			if v.dataLen()%rs != 0 {
				return nil, fmt.Errorf("netcdf: record variable %q has %d values, not a multiple of record size %d", v.Name, v.dataLen(), rs)
			}
			n := v.dataLen() / rs
			if numrecs >= 0 && n != numrecs {
				return nil, fmt.Errorf("netcdf: record variables disagree on record count (%d vs %d)", n, numrecs)
			}
			numrecs = n
			if recVarCount == 1 {
				vsizes[i] = rs * v.Type.Size()
			} else {
				vsizes[i] = pad4(rs * v.Type.Size())
			}
			continue
		}
		n, err := f.elemCount(v)
		if err != nil {
			return nil, err
		}
		if v.Type == Char {
			if len(v.Text) != n {
				return nil, fmt.Errorf("netcdf: char variable %q has %d chars, want %d", v.Name, len(v.Text), n)
			}
		} else if len(v.Data) != n {
			return nil, fmt.Errorf("netcdf: variable %q has %d values, want %d", v.Name, len(v.Data), n)
		}
		vsizes[i] = pad4(n * v.Type.Size())
	}
	if numrecs < 0 {
		numrecs = 0
	}

	encodeHeader := func(begins []int) ([]byte, error) {
		w := &writer{}
		w.buf = append(w.buf, 'C', 'D', 'F', 1)
		w.i32(int32(numrecs))
		if len(f.Dims) == 0 {
			w.i32(0)
			w.i32(0)
		} else {
			w.i32(tagDimension)
			w.i32(int32(len(f.Dims)))
			for _, d := range f.Dims {
				w.name(d.Name)
				w.i32(int32(d.Len))
			}
		}
		if err := w.attrList(f.Attrs); err != nil {
			return nil, err
		}
		if len(f.Vars) == 0 {
			w.i32(0)
			w.i32(0)
		} else {
			w.i32(tagVariable)
			w.i32(int32(len(f.Vars)))
			for i := range f.Vars {
				v := &f.Vars[i]
				w.name(v.Name)
				w.i32(int32(len(v.Dims)))
				for _, di := range v.Dims {
					w.i32(int32(di))
				}
				if err := w.attrList(v.Attrs); err != nil {
					return nil, err
				}
				w.i32(int32(v.Type))
				w.i32(int32(vsizes[i]))
				w.i32(int32(begins[i])) // CDF-1: 32-bit offsets
			}
		}
		return w.buf, nil
	}

	// Compute header size with zero offsets, then assign real offsets:
	// fixed variables first, then the interleaved record block.
	zero := make([]int, len(f.Vars))
	hdr, err := encodeHeader(zero)
	if err != nil {
		return nil, err
	}
	begins := make([]int, len(f.Vars))
	off := len(hdr)
	for i := range f.Vars {
		if isRec[i] {
			continue
		}
		begins[i] = off
		off += vsizes[i]
	}
	recStart := off
	recStride := 0
	for i := range f.Vars {
		if !isRec[i] {
			continue
		}
		begins[i] = recStart + recStride
		recStride += vsizes[i]
	}
	hdr, err = encodeHeader(begins)
	if err != nil {
		return nil, err
	}

	out := make([]byte, 0, recStart+numrecs*recStride)
	out = append(out, hdr...)
	// Fixed variables.
	for i := range f.Vars {
		if isRec[i] {
			continue
		}
		v := &f.Vars[i]
		w := &writer{buf: out}
		if v.Type == Char {
			w.buf = append(w.buf, v.Text...)
		} else {
			for _, val := range v.Data {
				w.value(v.Type, val)
			}
		}
		for len(w.buf)%4 != 0 {
			w.buf = append(w.buf, 0)
		}
		out = w.buf
	}
	// Record block: records interleave one slab per record variable.
	for rec := 0; rec < numrecs; rec++ {
		for i := range f.Vars {
			if !isRec[i] {
				continue
			}
			v := &f.Vars[i]
			w := &writer{buf: out}
			slabStart := len(w.buf)
			if v.Type == Char {
				w.buf = append(w.buf, v.Text[rec*recSizes[i]:(rec+1)*recSizes[i]]...)
			} else {
				for _, val := range v.Data[rec*recSizes[i] : (rec+1)*recSizes[i]] {
					w.value(v.Type, val)
				}
			}
			for len(w.buf)-slabStart < vsizes[i] {
				w.buf = append(w.buf, 0)
			}
			out = w.buf
		}
	}
	return out, nil
}

// --- decoding ---------------------------------------------------------

type reader struct {
	data []byte
	off  int
}

func (r *reader) need(n int) error {
	if r.off+n > len(r.data) {
		return fmt.Errorf("netcdf: truncated file at offset %d (need %d bytes)", r.off, n)
	}
	return nil
}

func (r *reader) i32() (int32, error) {
	if err := r.need(4); err != nil {
		return 0, err
	}
	v := int32(binary.BigEndian.Uint32(r.data[r.off:]))
	r.off += 4
	return v, nil
}

func (r *reader) name() (string, error) {
	n, err := r.i32()
	if err != nil {
		return "", err
	}
	if n < 0 {
		return "", fmt.Errorf("netcdf: negative name length %d", n)
	}
	if err := r.need(pad4(int(n))); err != nil {
		return "", err
	}
	s := string(r.data[r.off : r.off+int(n)])
	r.off += pad4(int(n))
	return s, nil
}

func (r *reader) value(t Type) (float64, error) {
	if err := r.need(t.Size()); err != nil {
		return 0, err
	}
	var v float64
	switch t {
	case Byte:
		v = float64(int8(r.data[r.off]))
	case Char:
		v = float64(r.data[r.off])
	case Short:
		v = float64(int16(binary.BigEndian.Uint16(r.data[r.off:])))
	case Int:
		v = float64(int32(binary.BigEndian.Uint32(r.data[r.off:])))
	case Float:
		v = float64(math.Float32frombits(binary.BigEndian.Uint32(r.data[r.off:])))
	case Double:
		v = math.Float64frombits(binary.BigEndian.Uint64(r.data[r.off:]))
	default:
		return 0, fmt.Errorf("netcdf: unsupported type %v", t)
	}
	r.off += t.Size()
	return v, nil
}

func (r *reader) attrList() ([]Attr, error) {
	tag, err := r.i32()
	if err != nil {
		return nil, err
	}
	count, err := r.i32()
	if err != nil {
		return nil, err
	}
	if tag == 0 {
		if count != 0 {
			return nil, fmt.Errorf("netcdf: ABSENT attr list with nonzero count %d", count)
		}
		return nil, nil
	}
	if tag != tagAttribute {
		return nil, fmt.Errorf("netcdf: expected attribute tag, got 0x%x", tag)
	}
	// Each attribute occupies at least 12 header bytes; reject counts the
	// file cannot possibly hold instead of trusting them for allocation.
	if int(count) < 0 || int(count)*12 > len(r.data) {
		return nil, fmt.Errorf("netcdf: implausible attribute count %d", count)
	}
	attrs := make([]Attr, 0, count)
	for i := int32(0); i < count; i++ {
		nm, err := r.name()
		if err != nil {
			return nil, err
		}
		t, err := r.i32()
		if err != nil {
			return nil, err
		}
		typ := Type(t)
		if typ.Size() == 0 {
			return nil, fmt.Errorf("netcdf: attribute %q has bad type %d", nm, t)
		}
		nelems, err := r.i32()
		if err != nil {
			return nil, err
		}
		if nelems < 0 {
			return nil, fmt.Errorf("netcdf: attribute %q has negative count", nm)
		}
		a := Attr{Name: nm, Type: typ}
		if typ == Char {
			if err := r.need(pad4(int(nelems))); err != nil {
				return nil, err
			}
			a.Str = string(r.data[r.off : r.off+int(nelems)])
			r.off += pad4(int(nelems))
		} else {
			// Bounds-check before allocating: a corrupt count must not
			// trigger a huge allocation.
			if err := r.need(pad4(int(nelems) * typ.Size())); err != nil {
				return nil, err
			}
			a.Nums = make([]float64, nelems)
			for j := range a.Nums {
				v, err := r.value(typ)
				if err != nil {
					return nil, err
				}
				a.Nums[j] = v
			}
			for r.off%4 != 0 {
				r.off++
			}
		}
		attrs = append(attrs, a)
	}
	return attrs, nil
}

// Decode parses CDF-1 bytes into a File.
func Decode(data []byte) (*File, error) {
	if len(data) < 4 || data[0] != 'C' || data[1] != 'D' || data[2] != 'F' {
		return nil, fmt.Errorf("netcdf: bad magic")
	}
	if data[3] != 1 {
		return nil, fmt.Errorf("netcdf: unsupported version %d (only CDF-1)", data[3])
	}
	r := &reader{data: data, off: 4}
	numrecs32, err := r.i32()
	if err != nil {
		return nil, err
	}
	numrecs := int(numrecs32)
	if numrecs < 0 || numrecs > len(data) {
		return nil, fmt.Errorf("netcdf: implausible record count %d", numrecs)
	}

	f := &File{}

	tag, err := r.i32()
	if err != nil {
		return nil, err
	}
	ndims, err := r.i32()
	if err != nil {
		return nil, err
	}
	if tag == tagDimension {
		for i := int32(0); i < ndims; i++ {
			nm, err := r.name()
			if err != nil {
				return nil, err
			}
			l, err := r.i32()
			if err != nil {
				return nil, err
			}
			if l < 0 {
				return nil, fmt.Errorf("netcdf: dimension %q has negative length", nm)
			}
			f.Dims = append(f.Dims, Dim{Name: nm, Len: int(l)}) // Len 0 = record dim
		}
	} else if tag != 0 || ndims != 0 {
		return nil, fmt.Errorf("netcdf: bad dimension list tag 0x%x", tag)
	}
	recDim, err := f.recordDim()
	if err != nil {
		return nil, err
	}

	if f.Attrs, err = r.attrList(); err != nil {
		return nil, err
	}

	tag, err = r.i32()
	if err != nil {
		return nil, err
	}
	nvars, err := r.i32()
	if err != nil {
		return nil, err
	}
	if tag == 0 {
		if nvars != 0 {
			return nil, fmt.Errorf("netcdf: ABSENT var list with count %d", nvars)
		}
		return f, nil
	}
	if tag != tagVariable {
		return nil, fmt.Errorf("netcdf: bad variable list tag 0x%x", tag)
	}
	if int(nvars) < 0 || int(nvars)*28 > len(data) {
		return nil, fmt.Errorf("netcdf: implausible variable count %d", nvars)
	}

	type pendingVar struct {
		v     Var
		begin int
		vsize int
	}
	var pending []pendingVar
	for i := int32(0); i < nvars; i++ {
		nm, err := r.name()
		if err != nil {
			return nil, err
		}
		nd, err := r.i32()
		if err != nil {
			return nil, err
		}
		if nd < 0 || nd > 1024 {
			return nil, fmt.Errorf("netcdf: variable %q has implausible rank %d", nm, nd)
		}
		dims := make([]int, nd)
		for j := range dims {
			di, err := r.i32()
			if err != nil {
				return nil, err
			}
			if int(di) < 0 || int(di) >= len(f.Dims) {
				return nil, fmt.Errorf("netcdf: variable %q has bad dim id %d", nm, di)
			}
			dims[j] = int(di)
		}
		attrs, err := r.attrList()
		if err != nil {
			return nil, err
		}
		t, err := r.i32()
		if err != nil {
			return nil, err
		}
		typ := Type(t)
		if typ.Size() == 0 {
			return nil, fmt.Errorf("netcdf: variable %q has bad type %d", nm, t)
		}
		vsize, err := r.i32()
		if err != nil {
			return nil, err
		}
		begin, err := r.i32()
		if err != nil {
			return nil, err
		}
		pending = append(pending, pendingVar{
			v:     Var{Name: nm, Type: typ, Dims: dims, Attrs: attrs},
			begin: int(begin),
			vsize: int(vsize),
		})
	}

	// The record-block stride is the sum of all record variables' vsizes
	// (each vsize is the per-record slab size as written by Encode).
	recStride := 0
	for _, p := range pending {
		if rec, err := f.isRecordVar(&p.v, recDim); err == nil && rec {
			if p.vsize < 0 || p.vsize > len(data) {
				return nil, fmt.Errorf("netcdf: record variable %q has implausible vsize %d", p.v.Name, p.vsize)
			}
			recStride += p.vsize
		}
	}

	for _, p := range pending {
		v := p.v
		rec, err := f.isRecordVar(&v, recDim)
		if err != nil {
			return nil, err
		}
		if rec {
			rs, err := f.recSize(&v)
			if err != nil {
				return nil, err
			}
			if rs <= 0 || rs > len(data) || numrecs*rs > len(data) {
				return nil, fmt.Errorf("netcdf: record variable %q has implausible record size %d", v.Name, rs)
			}
			slab := rs * v.Type.Size()
			if !v.readRecords(data, p.begin, recStride, numrecs, rs, slab) {
				return nil, fmt.Errorf("netcdf: record variable %q data out of bounds", v.Name)
			}
			f.Vars = append(f.Vars, v)
			continue
		}
		n, err := f.elemCount(&v)
		if err != nil {
			return nil, err
		}
		// n is derived from untrusted dimension lengths: reject before
		// allocating if the claimed data cannot fit in the file (this
		// also catches products that overflowed to negative).
		if n < 0 || n > len(data) {
			return nil, fmt.Errorf("netcdf: variable %q has implausible element count %d", v.Name, n)
		}
		if p.begin < 0 || p.begin+n*v.Type.Size() > len(data) || p.begin+n*v.Type.Size() < 0 {
			return nil, fmt.Errorf("netcdf: variable %q data out of bounds", v.Name)
		}
		rr := &reader{data: data, off: p.begin}
		if v.Type == Char {
			v.Text = string(data[p.begin : p.begin+n])
		} else {
			v.Data = make([]float64, n)
			for j := range v.Data {
				val, err := rr.value(v.Type)
				if err != nil {
					return nil, err
				}
				v.Data[j] = val
			}
		}
		f.Vars = append(f.Vars, v)
	}
	return f, nil
}

// readRecords fills v's payload from numrecs interleaved record slabs
// starting at begin with the given stride; false on bounds violations.
func (v *Var) readRecords(data []byte, begin, stride, numrecs, recElems, slabBytes int) bool {
	if begin < 0 || stride < slabBytes || slabBytes < 0 {
		return false
	}
	if v.Type != Char {
		v.Data = make([]float64, 0, numrecs*recElems)
	}
	var text []byte
	for rec := 0; rec < numrecs; rec++ {
		off := begin + rec*stride
		if off < 0 || off+slabBytes > len(data) {
			return false
		}
		if v.Type == Char {
			text = append(text, data[off:off+recElems]...)
			continue
		}
		rr := &reader{data: data, off: off}
		for j := 0; j < recElems; j++ {
			val, err := rr.value(v.Type)
			if err != nil {
				return false
			}
			v.Data = append(v.Data, val)
		}
	}
	if v.Type == Char {
		v.Text = string(text)
	}
	return true
}
