package wire

import (
	"bytes"
	"io"
	"math"
	"runtime"
	"testing"
)

// TestRoundTrip drives every primitive through an encode→decode cycle
// and re-encodes the decoded values, asserting byte equality — the
// fixed point the snapshot codec's byte-exactness rests on.
func TestRoundTrip(t *testing.T) {
	encode := func(ints []int, f float64, b bool, s string, fs []float64, ss []string) []byte {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, x := range ints {
			w.Int(x)
		}
		w.Uvarint(12345)
		w.Int64(-1 << 40)
		w.Float64(f)
		w.Bool(b)
		w.String(s)
		w.Float64s(fs)
		w.Strings(ss)
		if w.Err() != nil {
			t.Fatal(w.Err())
		}
		return buf.Bytes()
	}

	ints := []int{0, 1, -1, 1 << 30, -(1 << 30)}
	first := encode(ints, math.Pi, true, "héllo", []float64{1.5, -2.25, 0}, []string{"a", "", "bb"})

	r := NewReader(bytes.NewReader(first))
	var gotInts []int
	for range ints {
		gotInts = append(gotInts, r.Int())
	}
	if u := r.Uvarint(); u != 12345 {
		t.Fatalf("Uvarint = %d", u)
	}
	if x := r.Int64(); x != -1<<40 {
		t.Fatalf("Int64 = %d", x)
	}
	f := r.Float64()
	b := r.Bool()
	s := r.String()
	fs := r.Float64s()
	ss := r.Strings()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	var buf2 bytes.Buffer
	w2 := NewWriter(&buf2)
	for _, x := range gotInts {
		w2.Int(x)
	}
	w2.Uvarint(12345)
	w2.Int64(-1 << 40)
	w2.Float64(f)
	w2.Bool(b)
	w2.String(s)
	w2.Float64s(fs)
	w2.Strings(ss)
	if !bytes.Equal(first, buf2.Bytes()) {
		t.Fatal("re-encoding decoded values changed the bytes")
	}
}

// TestEmptySlicesDecodeNil: empty encoded slices decode to nil so a
// decoded accumulator re-encodes to the same bytes as one that never
// appended (both write length 0).
func TestEmptySlicesDecodeNil(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Float64s(nil)
	w.Float64s([]float64{})
	w.Strings(nil)
	r := NewReader(bytes.NewReader(buf.Bytes()))
	if xs := r.Float64s(); xs != nil {
		t.Fatalf("empty Float64s decoded non-nil: %v", xs)
	}
	if xs := r.Float64s(); xs != nil {
		t.Fatalf("empty []float64{} decoded non-nil: %v", xs)
	}
	if ss := r.Strings(); ss != nil {
		t.Fatalf("empty Strings decoded non-nil: %v", ss)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTruncatedStream: every truncation point yields a sticky error,
// never a partial zero-value success.
func TestTruncatedStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.String("hello")
	w.Float64(2.5)
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut++ {
		r := NewReader(bytes.NewReader(full[:cut]))
		_ = r.String()
		_ = r.Float64()
		if r.Err() == nil {
			t.Fatalf("truncation at %d/%d bytes not detected", cut, len(full))
		}
		if r.Err() == io.EOF {
			t.Fatalf("truncation at %d surfaced as bare io.EOF", cut)
		}
	}
}

// TestCloseRejectsTrailingBytes: a decoder that under-consumes its
// section must be caught by Close.
func TestCloseRejectsTrailingBytes(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte{0x00, 0xFF}))
	r.Uvarint()
	if err := r.Close(); err == nil {
		t.Fatal("Close accepted trailing bytes")
	}
}

// TestImplausibleLengthRefused: a corrupt length prefix fails before
// allocation.
func TestImplausibleLengthRefused(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Uvarint(1 << 40) // far above maxLen
	r := NewReader(bytes.NewReader(buf.Bytes()))
	if s := r.String(); s != "" || r.Err() == nil {
		t.Fatalf("implausible length accepted (s=%q err=%v)", s, r.Err())
	}
}

// TestCorruptBool: bool bytes other than 0/1 are refused — they would
// otherwise round-trip to different bytes.
func TestCorruptBool(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte{2}))
	if r.Bool(); r.Err() == nil {
		t.Fatal("corrupt bool byte accepted")
	}
}

// TestLyingLengthBoundedByBytesLeft: a length prefix far beyond the
// bytes actually present must fail with an error before allocating what
// it claims — the 5-byte input uvarint(1<<29) once made Float64s
// allocate 4 GiB. Checked on an in-memory source (the prefix is refused
// against the bytes left) and on a plain io.Reader that cannot tell its
// size (the slice grows only as elements arrive).
func TestLyingLengthBoundedByBytesLeft(t *testing.T) {
	var buf bytes.Buffer
	NewWriter(&buf).Uvarint(1 << 29)
	input := buf.Bytes()
	if len(input) != 5 {
		t.Fatalf("prefix is %d bytes, want 5", len(input))
	}
	sources := map[string]func() io.Reader{
		"sized":   func() io.Reader { return bytes.NewReader(input) },
		"unsized": func() io.Reader { return struct{ io.Reader }{bytes.NewReader(input)} },
	}
	decoders := map[string]func(*Reader) bool{
		"Float64s": func(r *Reader) bool { return r.Float64s() == nil },
		"Strings":  func(r *Reader) bool { return r.Strings() == nil },
		"Bytes":    func(r *Reader) bool { return r.Bytes() == nil },
		"String":   func(r *Reader) bool { return r.String() == "" },
	}
	for sname, src := range sources {
		for dname, decode := range decoders {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			r := NewReader(src())
			empty := decode(r)
			runtime.ReadMemStats(&after)
			if !empty || r.Err() == nil {
				t.Errorf("%s/%s: lying prefix accepted (err=%v)", sname, dname, r.Err())
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
				t.Errorf("%s/%s: allocated %d bytes for a 5-byte input", sname, dname, alloc)
			}
		}
	}
}
