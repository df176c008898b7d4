// Package wire implements the deterministic binary primitives the
// snapshot codec is built from: varint-prefixed strings and slices,
// fixed-width IEEE-754 floats, and zigzag-encoded ints, behind sticky
// Writer/Reader wrappers so codec methods never check an error per
// field. The encoding has no self-description — layout is fixed by the
// snapshot format version — which is what makes encode(decode(b)) == b
// achievable byte for byte.
package wire

import (
	"encoding/binary"
	"errors"
	"io"
	"math"
	"slices"
)

// ErrCorrupt reports a structurally invalid stream (an implausible
// length prefix, trailing bytes, or a truncated value).
var ErrCorrupt = errors.New("wire: corrupt stream")

// maxLen bounds any single length prefix (strings, slices). State this
// codec carries is far below it; anything above is a corrupt or hostile
// stream, refused before allocation.
const maxLen = 1 << 30

// chunk caps the up-front allocation for a length prefix the source
// cannot vouch for: the value then grows as its bytes actually arrive,
// so a lying prefix costs at most about twice the bytes really present.
const chunk = 1 << 12

// Writer encodes primitives to an io.Writer with a sticky error: after
// the first failure every call is a no-op and Err returns the cause.
type Writer struct {
	w   io.Writer
	err error
	buf [binary.MaxVarintLen64]byte
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Err returns the first write error, if any.
func (w *Writer) Err() error { return w.err }

func (w *Writer) write(p []byte) {
	if w.err != nil {
		return
	}
	_, w.err = w.w.Write(p)
}

// Uvarint writes an unsigned varint.
func (w *Writer) Uvarint(x uint64) {
	n := binary.PutUvarint(w.buf[:], x)
	w.write(w.buf[:n])
}

// Int writes a signed int as a zigzag varint.
func (w *Writer) Int(x int) {
	n := binary.PutVarint(w.buf[:], int64(x))
	w.write(w.buf[:n])
}

// Int64 writes a signed 64-bit value as a zigzag varint.
func (w *Writer) Int64(x int64) {
	n := binary.PutVarint(w.buf[:], x)
	w.write(w.buf[:n])
}

// Bool writes one byte, 0 or 1.
func (w *Writer) Bool(b bool) {
	w.buf[0] = 0
	if b {
		w.buf[0] = 1
	}
	w.write(w.buf[:1])
}

// Float64 writes the IEEE-754 bits, little-endian, fixed 8 bytes.
func (w *Writer) Float64(f float64) {
	binary.LittleEndian.PutUint64(w.buf[:8], math.Float64bits(f))
	w.write(w.buf[:8])
}

// String writes a length-prefixed string.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	if w.err != nil {
		return
	}
	_, w.err = io.WriteString(w.w, s)
}

// Bytes writes a length-prefixed byte slice.
func (w *Writer) Bytes(p []byte) {
	w.Uvarint(uint64(len(p)))
	w.write(p)
}

// Float64s writes a length-prefixed float64 slice in order.
func (w *Writer) Float64s(xs []float64) {
	w.Uvarint(uint64(len(xs)))
	for _, x := range xs {
		w.Float64(x)
	}
}

// Strings writes a length-prefixed string slice in order.
func (w *Writer) Strings(ss []string) {
	w.Uvarint(uint64(len(ss)))
	for _, s := range ss {
		w.String(s)
	}
}

// Reader decodes primitives with a sticky error: after the first
// failure every call returns the zero value and Err returns the cause.
type Reader struct {
	r   io.ByteReader
	src io.Reader
	err error
	buf [8]byte
}

// byteReader adapts a plain io.Reader to io.ByteReader. Snapshot
// sections arrive as in-memory buffers (bytes.Reader implements
// ByteReader natively), so this path is the exception, not the rule.
type byteReader struct{ r io.Reader }

func (b byteReader) ReadByte() (byte, error) {
	var p [1]byte
	if _, err := io.ReadFull(b.r, p[:]); err != nil {
		return 0, err
	}
	return p[0], nil
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader {
	br, ok := r.(io.ByteReader)
	if !ok {
		br = byteReader{r: r}
	}
	return &Reader{r: br, src: r}
}

// Err returns the first read error, if any.
func (r *Reader) Err() error { return r.err }

func (r *Reader) fail(err error) {
	if r.err == nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		r.err = err
	}
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	x, err := binary.ReadUvarint(r.r)
	if err != nil {
		r.fail(err)
		return 0
	}
	return x
}

// Int reads a zigzag varint as an int.
func (r *Reader) Int() int { return int(r.Int64()) }

// Int64 reads a zigzag varint.
func (r *Reader) Int64() int64 {
	if r.err != nil {
		return 0
	}
	x, err := binary.ReadVarint(r.r)
	if err != nil {
		r.fail(err)
		return 0
	}
	return x
}

// Bool reads one byte written by Writer.Bool.
func (r *Reader) Bool() bool {
	if r.err != nil {
		return false
	}
	b, err := r.r.ReadByte()
	if err != nil {
		r.fail(err)
		return false
	}
	switch b {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail(ErrCorrupt)
		return false
	}
}

// Float64 reads a fixed 8-byte little-endian IEEE-754 value.
func (r *Reader) Float64() float64 {
	if r.err != nil {
		return 0
	}
	if _, err := io.ReadFull(r.src, r.buf[:8]); err != nil {
		r.fail(err)
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(r.buf[:8]))
}

// sized reports whether the source knows how many bytes it has left (an
// in-memory reader: every snapshot section is one).
func (r *Reader) sized() (left int, ok bool) {
	l, ok := r.src.(interface{ Len() int })
	if !ok {
		return 0, false
	}
	return l.Len(), true
}

// Len reads a length prefix, refusing implausible values before any
// allocation sized by them: anything above maxLen and, when the source
// knows its size, anything above the bytes left — every encoded element
// occupies at least one byte.
func (r *Reader) Len() int { return r.lenOf(1) }

// lenOf reads a length prefix of elements at least size bytes each.
func (r *Reader) lenOf(size uint64) int {
	n := r.Uvarint()
	if n > maxLen {
		r.fail(ErrCorrupt)
		return 0
	}
	if left, ok := r.sized(); ok && n*size > uint64(left) {
		r.fail(io.ErrUnexpectedEOF)
		return 0
	}
	return int(n)
}

// initialCap is the capacity to allocate for n elements: all of them
// when the source vouched for their bytes (lenOf checked), at most chunk
// otherwise.
func (r *Reader) initialCap(n int) int {
	if _, ok := r.sized(); ok {
		return n
	}
	return min(n, chunk)
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.Bytes()) }

// Bytes reads a length-prefixed byte slice (nil when empty).
func (r *Reader) Bytes() []byte {
	n := r.Len()
	if r.err != nil || n == 0 {
		return nil
	}
	p := make([]byte, 0, r.initialCap(n))
	for len(p) < n {
		k := min(n-len(p), max(cap(p)-len(p), len(p)))
		p = slices.Grow(p, k)[:len(p)+k]
		if _, err := io.ReadFull(r.src, p[len(p)-k:]); err != nil {
			r.fail(err)
			return nil
		}
	}
	return p
}

// Float64s reads a length-prefixed float64 slice (nil when empty, so
// encode→decode→encode reproduces the bytes of a nil slice).
func (r *Reader) Float64s() []float64 {
	n := r.lenOf(8)
	if r.err != nil || n == 0 {
		return nil
	}
	xs := make([]float64, 0, r.initialCap(n))
	for i := 0; i < n && r.err == nil; i++ {
		xs = append(xs, r.Float64())
	}
	if r.err != nil {
		return nil
	}
	return xs
}

// Strings reads a length-prefixed string slice (nil when empty).
func (r *Reader) Strings() []string {
	n := r.Len()
	if r.err != nil || n == 0 {
		return nil
	}
	ss := make([]string, 0, r.initialCap(n))
	for i := 0; i < n && r.err == nil; i++ {
		ss = append(ss, r.String())
	}
	if r.err != nil {
		return nil
	}
	return ss
}

// Close asserts the stream is fully consumed: exactly at EOF, with no
// prior error. Snapshot sections are length-delimited, so trailing
// bytes mean the section and its decoder disagree on layout.
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	if _, err := r.r.ReadByte(); err != io.EOF {
		if err == nil {
			err = ErrCorrupt
		}
		return err
	}
	return nil
}
