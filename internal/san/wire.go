package san

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// The one table of wire layouts, kind → {append, decode view}: each
// package registers the kinds whose message types it owns. Layouts are
// built from Writer and Reader, a deterministic binary encoding (length-
// prefixed strings and bytes, maps in sorted key order, IEEE-754 floats)
// whose decoding is total: malformed input is ErrWireFormat, never a
// panic or an unbounded allocation. A kind with no row is a signal: only
// a nil body, as zero bytes, travels under it.

// ErrWireFormat reports a malformed or truncated wire message.
var ErrWireFormat = errors.New("san: malformed wire message")

type layout struct {
	kind   string
	append func(dst []byte, body any) ([]byte, error)
	decode func(data []byte) (any, bool, error)
}

// kinds holds the rows by the length of their kind, so a lookup compares
// the few kinds of one length (a map access cost a third of an encode).
// It is written only during package initialisation, so it is read
// without a lock; names is its keys.
var (
	kinds [64][]layout
	names []string
)

// row is kind's bucket; kinds of 63 bytes or more share the last.
func row(kind string) *[]layout { return &kinds[min(len(kind), len(kinds)-1)] }

func lookup(kind string) *layout {
	rows := *row(kind)
	for i := range rows {
		if rows[i].kind == kind {
			return &rows[i]
		}
	}
	return nil
}

// RegisterKind makes enc and dec kind's layout, from package-level
// initialisation; a kind registered twice panics. enc appends a T to w
// and returns it (a body of another type is refused before enc runs);
// dec parses data back, reporting whether the body aliases it
// (Reader.Done).
func RegisterKind[T any](kind string, enc func(w Writer, v T) (Writer, error), dec func(data []byte) (any, bool, error)) {
	if lookup(kind) != nil {
		panic("san: kind " + kind + " registered twice")
	}
	names = append(names, kind)
	*row(kind) = append(*row(kind), layout{kind, func(dst []byte, body any) ([]byte, error) {
		v, ok := body.(T)
		if !ok {
			return nil, fmt.Errorf("%w: %s has no layout for a %T", ErrWireFormat, kind, body)
		}
		return enc(dst, v)
	}, dec})
}

// Kinds lists every registered kind, sorted.
func Kinds() []string { return slices.Sorted(slices.Values(names)) }

// AppendBody appends body's encoding under kind's layout to dst (nil or
// a recycled buffer; its contents are kept).
func AppendBody(dst []byte, kind string, body any) ([]byte, error) {
	if l := lookup(kind); l != nil {
		return l.append(dst, body)
	}
	if body != nil {
		return nil, fmt.Errorf("%w: %s has no layout for a %T", ErrWireFormat, kind, body)
	}
	return dst, nil
}

// DecodeBodyView parses data into kind's body. Its []byte fields alias
// data (aliased=true; strings are copied), so it is valid only while
// data's buffer is: the network pairs it with a Lease.
func DecodeBodyView(kind string, data []byte) (body any, aliased bool, err error) {
	if l := lookup(kind); l != nil {
		return l.decode(data)
	}
	if len(data) != 0 {
		return nil, false, fmt.Errorf("%w: %s has no layout", ErrWireFormat, kind)
	}
	return nil, false, nil
}

// Writer is a body's encoding so far; each method appends one field.
type Writer []byte

func (w *Writer) Uvarint(v uint64) { *w = binary.AppendUvarint(*w, v) }
func (w *Writer) Varint(v int64)   { *w = binary.AppendVarint(*w, v) }
func (w *Writer) U64(v uint64)     { *w = binary.LittleEndian.AppendUint64(*w, v) }
func (w *Writer) F64(v float64)    { w.U64(math.Float64bits(v)) }
func (w *Writer) Bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	*w = append(*w, b)
}

func (w *Writer) Bytes(b []byte) { *w = append(binary.AppendUvarint(*w, uint64(len(b))), b...) }
func (w *Writer) Str(s string)   { *w = append(binary.AppendUvarint(*w, uint64(len(s))), s...) }

func (w *Writer) Addr(a Addr) {
	w.Str(a.Node)
	w.Str(a.Proc)
}

// sortedKeys collects and sorts a map's keys, using the caller's
// stack-backed scratch array when it fits so typical small maps
// (profiles, metrics) sort without a heap allocation.
func sortedKeys[V any](m map[string]V, scratch *[8]string) []string {
	var keys []string
	if len(m) <= len(scratch) {
		keys = scratch[:0]
	} else {
		keys = make([]string, 0, len(m))
	}
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// StrMap encodes a map in sorted key order: equal maps always yield
// equal bytes.
func (w *Writer) StrMap(m map[string]string) {
	var scratch [8]string
	keys := sortedKeys(m, &scratch)
	w.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		w.Str(k)
		w.Str(m[k])
	}
}

func (w *Writer) F64Map(m map[string]float64) {
	var scratch [8]string
	keys := sortedKeys(m, &scratch)
	w.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		w.Str(k)
		w.F64(m[k])
	}
}

// Reader parses a body with sticky errors: the first failure drops the
// rest of the input, so every later field reads as zero, a layout needs
// no per-field error plumbing, and Done reports the outcome. Bytes
// returns subslices of the input instead of copies and records that it
// did.
type Reader struct {
	buf     []byte
	pos     int
	err     error
	aliased bool
}

// NewReader reads data.
func NewReader(data []byte) Reader { return Reader{buf: data} }

// Done ends a layout's decode: body, unless a field failed or bytes are
// left over, with whether it aliases the input.
func (r *Reader) Done(body any) (any, bool, error) {
	if r.err != nil {
		return nil, false, r.err
	}
	if len(r.buf) != r.pos {
		return nil, false, fmt.Errorf("%w: %d trailing bytes", ErrWireFormat, len(r.buf)-r.pos)
	}
	return body, r.aliased, nil
}

// Fail marks the body malformed.
func (r *Reader) Fail() {
	if r.err == nil {
		r.err = ErrWireFormat
	}
	r.buf, r.pos = nil, 0
}

func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		r.Fail()
		return 0
	}
	r.pos += n
	return v
}

// Varint undoes Writer.Varint's zig-zag, as binary.Varint does.
func (r *Reader) Varint() int64 { u := r.Uvarint(); return int64(u>>1) ^ -int64(u&1) }

func (r *Reader) U64() uint64 {
	if r.pos+8 > len(r.buf) {
		r.Fail()
		return 0
	}
	r.pos += 8
	return binary.LittleEndian.Uint64(r.buf[r.pos-8:])
}

func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

func (r *Reader) Bool() bool {
	if r.pos >= len(r.buf) || r.buf[r.pos] > 1 {
		r.Fail()
		return false
	}
	r.pos++
	return r.buf[r.pos-1] == 1
}

func (r *Reader) Bytes() []byte {
	raw := r.raw()
	if len(raw) == 0 {
		return nil
	}
	r.aliased = true
	// Capacity-capped so an append by the consumer reallocates instead
	// of scribbling over the rest of the receive buffer.
	return raw[:len(raw):len(raw)]
}

// raw reads a length-prefixed field as a subslice of the input — no
// copy, no aliased mark. Callers either copy it themselves (Str: the
// string conversion is the copy) or mark it via Bytes.
func (r *Reader) raw() []byte {
	n := r.Uvarint()
	if n > uint64(len(r.buf)-r.pos) {
		r.Fail()
		return nil
	}
	r.pos += int(n)
	return r.buf[r.pos-int(n) : r.pos]
}

func (r *Reader) Str() string { return string(r.raw()) }

// StrOr reads a string field, returning same rather than a copy when the
// bytes are equal: a field that usually repeats one already read costs
// no allocation.
func (r *Reader) StrOr(same string) string {
	if raw := r.raw(); string(raw) != same {
		return string(raw)
	}
	return same
}

// SliceLen reads an element count and bounds it by the bytes left:
// each element needs at least min bytes, so a count the remaining
// input cannot possibly satisfy is refused before any allocation.
func (r *Reader) SliceLen(min int) int {
	n := r.Uvarint()
	if n > uint64((len(r.buf)-r.pos)/min)+1 {
		r.Fail()
		return 0
	}
	return int(n)
}

func (r *Reader) Addr() Addr { return Addr{Node: r.Str(), Proc: r.Str()} }

func (r *Reader) StrMap() map[string]string {
	n := r.SliceLen(2)
	if n == 0 {
		return nil
	}
	m := make(map[string]string, n)
	for i := 0; i < n; i++ {
		k := r.Str()
		v := r.Str()
		if r.err != nil {
			return nil
		}
		m[k] = v
	}
	return m
}

func (r *Reader) F64Map() map[string]float64 {
	n := r.SliceLen(9)
	if n == 0 {
		return nil
	}
	m := make(map[string]float64, n)
	for i := 0; i < n; i++ {
		k := r.Str()
		v := r.F64()
		if r.err != nil {
			return nil
		}
		m[k] = v
	}
	return m
}
