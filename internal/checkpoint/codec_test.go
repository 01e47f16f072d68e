package checkpoint

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"
)

// rt encodes one stream with the given sections and returns the bytes.
func rt(t *testing.T, sections map[string][]byte, order []string) []byte {
	t.Helper()
	var out bytes.Buffer
	enc := NewEncoder(&out)
	for _, name := range order {
		if err := enc.Section(name, sections[name]); err != nil {
			t.Fatalf("Section(%q): %v", name, err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	return out.Bytes()
}

func TestSectionRoundTrip(t *testing.T) {
	sections := map[string][]byte{
		"engine":  {1, 2, 3},
		"vehicle": []byte("payload with \x00 bytes and unicode §"),
		"empty":   nil,
	}
	order := []string{"engine", "vehicle", "empty"}
	data := rt(t, sections, order)

	dec := NewDecoder(bytes.NewReader(data))
	for _, want := range order {
		name, payload, err := dec.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if name != want {
			t.Fatalf("section name = %q, want %q", name, want)
		}
		if !bytes.Equal(payload, sections[want]) {
			t.Fatalf("section %q payload mismatch", want)
		}
	}
	if _, _, err := dec.Next(); err != io.EOF {
		t.Fatalf("expected io.EOF at end, got %v", err)
	}
}

func TestEmptyStreamRoundTrip(t *testing.T) {
	var out bytes.Buffer
	if err := NewEncoder(&out).Flush(); err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder(bytes.NewReader(out.Bytes()))
	if _, _, err := dec.Next(); err != io.EOF {
		t.Fatalf("empty checkpoint: want io.EOF, got %v", err)
	}
}

func TestBadMagic(t *testing.T) {
	data := rt(t, map[string][]byte{"s": {1}}, []string{"s"})
	data[0] ^= 0xff
	if _, _, err := NewDecoder(bytes.NewReader(data)).Next(); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("want ErrBadMagic, got %v", err)
	}
}

func TestFutureVersionRefused(t *testing.T) {
	data := rt(t, map[string][]byte{"s": {1}}, []string{"s"})
	data[8] = byte(Version + 1)
	_, _, err := NewDecoder(bytes.NewReader(data)).Next()
	var fv *FutureVersionError
	if !errors.As(err, &fv) {
		t.Fatalf("want FutureVersionError, got %v", err)
	}
	if fv.Got != Version+1 || fv.Supported != Version {
		t.Fatalf("FutureVersionError = %+v", fv)
	}
}

func TestCorruptPayloadDetected(t *testing.T) {
	data := rt(t, map[string][]byte{"s": []byte("precise state")}, []string{"s"})
	data[len(data)-6] ^= 0x01 // flip a payload bit
	name, _, err := NewDecoder(bytes.NewReader(data)).Next()
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
	var se *SectionError
	if !errors.As(err, &se) || se.Section != "s" {
		t.Fatalf("want SectionError naming %q, got %v (name=%q)", "s", err, name)
	}
}

func TestTruncatedStream(t *testing.T) {
	data := rt(t, map[string][]byte{"s": []byte("some payload")}, []string{"s"})
	for _, cut := range []int{1, 8, 11, 13, len(data) - 1} {
		if _, _, err := NewDecoder(bytes.NewReader(data[:cut])).Next(); !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut at %d: want ErrTruncated, got %v", cut, err)
		}
	}
}

func TestBufPrimitivesRoundTrip(t *testing.T) {
	var b Buf
	b.Uint8(250)
	b.Bool(true)
	b.Bool(false)
	b.Uint32(0xdeadbeef)
	b.Uint64(1 << 60)
	b.Int(-42)
	b.Int64(math.MinInt64)
	b.Float64(math.Pi)
	b.Float64(math.Copysign(0, -1))
	b.Float64(math.NaN())
	b.String("vehicle-007")
	b.Bytes64([]byte{9, 8, 7})
	b.Float64s([]float64{1.5, -2.5})
	b.Float64s(nil)
	b.Float64Rows([][]float64{{1}, {2, 3}, nil})
	b.Bools([]bool{true, false, true})

	r := NewRBuf(b.Bytes())
	if got := r.Uint8(); got != 250 {
		t.Fatalf("Uint8 = %d", got)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("Bool round-trip failed")
	}
	if got := r.Uint32(); got != 0xdeadbeef {
		t.Fatalf("Uint32 = %x", got)
	}
	if got := r.Uint64(); got != 1<<60 {
		t.Fatalf("Uint64 = %d", got)
	}
	if got := r.Int(); got != -42 {
		t.Fatalf("Int = %d", got)
	}
	if got := r.Int64(); got != math.MinInt64 {
		t.Fatalf("Int64 = %d", got)
	}
	if got := r.Float64(); got != math.Pi {
		t.Fatalf("Float64 = %v", got)
	}
	if got := r.Float64(); math.Float64bits(got) != math.Float64bits(math.Copysign(0, -1)) {
		t.Fatalf("negative zero lost: %v", got)
	}
	if got := r.Float64(); !math.IsNaN(got) {
		t.Fatalf("NaN lost: %v", got)
	}
	if got := r.String(); got != "vehicle-007" {
		t.Fatalf("String = %q", got)
	}
	if got := r.Bytes64(); !bytes.Equal(got, []byte{9, 8, 7}) {
		t.Fatalf("Bytes64 = %v", got)
	}
	if got := r.Float64s(); len(got) != 2 || got[0] != 1.5 || got[1] != -2.5 {
		t.Fatalf("Float64s = %v", got)
	}
	if got := r.Float64s(); got != nil {
		t.Fatalf("empty Float64s = %v", got)
	}
	rows := r.Float64Rows()
	if len(rows) != 3 || len(rows[0]) != 1 || len(rows[1]) != 2 || rows[2] != nil {
		t.Fatalf("Float64Rows = %v", rows)
	}
	if got := r.Bools(); len(got) != 3 || !got[0] || got[1] || !got[2] {
		t.Fatalf("Bools = %v", got)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestRBufTruncationIsSticky(t *testing.T) {
	var b Buf
	b.Uint64(7)
	r := NewRBuf(b.Bytes()[:4])
	if got := r.Uint64(); got != 0 {
		t.Fatalf("truncated Uint64 = %d, want 0", got)
	}
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("Err = %v, want ErrTruncated", r.Err())
	}
	// Every later read keeps returning zero values without panicking.
	_ = r.String()
	_ = r.Float64Rows()
	if !errors.Is(r.Close(), ErrTruncated) {
		t.Fatalf("Close = %v", r.Close())
	}
}

func TestRBufHostileLengthPrefix(t *testing.T) {
	var b Buf
	b.Int(1 << 50) // claims a petabyte-scale slice
	r := NewRBuf(b.Bytes())
	if got := r.Float64s(); got != nil {
		t.Fatalf("hostile Float64s = %v", got)
	}
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("Err = %v", r.Err())
	}
}

func TestRBufTrailingData(t *testing.T) {
	var b Buf
	b.Uint8(1)
	b.Uint8(2)
	r := NewRBuf(b.Bytes())
	_ = r.Uint8()
	if !errors.Is(r.Close(), ErrTrailingData) {
		t.Fatalf("Close = %v, want ErrTrailingData", r.Close())
	}
}
