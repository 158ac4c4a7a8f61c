package colstore

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"expertfind/internal/durable"
	"expertfind/internal/durable/faultfs"
)

// testSegs builds one segment of every kind with deterministic values.
func testSegs(n int) []SegmentData {
	rng := rand.New(rand.NewSource(7))
	f32 := make([]float32, n)
	i32 := make([]int32, n)
	u64 := make([]uint64, n)
	u8 := make([]byte, n)
	for i := 0; i < n; i++ {
		f32[i] = rng.Float32()*2 - 1
		i32[i] = rng.Int31() - 1<<30
		u64[i] = rng.Uint64()
		u8[i] = byte(rng.Intn(256))
	}
	return []SegmentData{
		F32Seg("embs", f32),
		I32Seg("ids", i32),
		U64Seg("nbroff", u64),
		U8Seg("meta", u8),
	}
}

// writeTestFile writes prefix bytes followed by a section and returns
// the path and the section's base offset.
func writeTestFile(t *testing.T, prefix []byte, segs []SegmentData) (path string, base int64) {
	t.Helper()
	var buf bytes.Buffer
	buf.Write(prefix)
	base = int64(len(prefix))
	end, _, err := WriteSection(&buf, base, segs)
	if err != nil {
		t.Fatalf("WriteSection: %v", err)
	}
	if int64(buf.Len()) != end {
		t.Fatalf("WriteSection end = %d, wrote %d bytes", end, buf.Len())
	}
	path = filepath.Join(t.TempDir(), "snap.efs")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, base
}

func openAt(t *testing.T, path string, base int64, mode Mode) (*Section, func()) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(f, base, mode)
	if err != nil {
		f.Close()
		t.Fatalf("Open(%v): %v", mode, err)
	}
	return s, func() { s.Close(); f.Close() }
}

func TestRoundTripAllKindsBothModes(t *testing.T) {
	const n = 1500 // > one page of f32, odd enough to exercise padding
	segs := testSegs(n)
	path, base := writeTestFile(t, []byte("gob-payload-prefix"), segs)

	for _, mode := range []Mode{ModeOff, ModeAuto} {
		s, done := openAt(t, path, base, mode)
		if mode == ModeAuto && mmapSupported && !s.Mapped {
			t.Fatalf("ModeAuto did not map on a platform with mmap support")
		}
		if mode == ModeOff && s.Mapped {
			t.Fatalf("ModeOff produced a mapping")
		}

		f32, err := s.Float32s("embs")
		if err != nil {
			t.Fatal(err)
		}
		i32, err := Int32s[int32](s, "ids")
		if err != nil {
			t.Fatal(err)
		}
		u64, err := s.Uint64s("nbroff")
		if err != nil {
			t.Fatal(err)
		}
		u8, err := s.Bytes("meta")
		if err != nil {
			t.Fatal(err)
		}

		rng := rand.New(rand.NewSource(7))
		for i := 0; i < n; i++ {
			if want := rng.Float32()*2 - 1; math.Float32bits(f32[i]) != math.Float32bits(want) {
				t.Fatalf("%v f32[%d] = %v, want %v", mode, i, f32[i], want)
			}
			if want := rng.Int31() - 1<<30; i32[i] != want {
				t.Fatalf("%v i32[%d] = %d, want %d", mode, i, i32[i], want)
			}
			if want := rng.Uint64(); u64[i] != want {
				t.Fatalf("%v u64[%d] = %d, want %d", mode, i, u64[i], want)
			}
			if want := byte(rng.Intn(256)); u8[i] != want {
				t.Fatalf("%v u8[%d] = %d, want %d", mode, i, u8[i], want)
			}
		}
		done()
	}
}

// TestMappedViewsFullCap is the load-bearing safety property: a view
// into the read-only mapping must have cap == len so a consumer append
// reallocates to the heap instead of faulting on the mapping.
func TestMappedViewsFullCap(t *testing.T) {
	if !mmapSupported {
		t.Skip("no mmap on this platform")
	}
	segs := testSegs(64)
	path, base := writeTestFile(t, nil, segs)
	s, done := openAt(t, path, base, ModeOn)
	defer done()
	if !s.Mapped {
		t.Fatal("ModeOn section not mapped")
	}

	f32, _ := s.Float32s("embs")
	i32, _ := Int32s[int32](s, "ids")
	u8, _ := s.Bytes("meta")
	for _, c := range []struct {
		name     string
		len, cap int
	}{
		{"embs", len(f32), cap(f32)},
		{"ids", len(i32), cap(i32)},
		{"meta", len(u8), cap(u8)},
	} {
		if c.cap != c.len {
			t.Fatalf("segment %q view cap %d != len %d", c.name, c.cap, c.len)
		}
	}
	// The append must not touch the mapping (it would SIGSEGV on
	// PROT_READ memory — the test crashing IS the failure signal).
	grown := append(i32, 42)
	if &grown[0] == &i32[0] {
		t.Fatal("append aliased the mapped view")
	}
}

// TestMaterializedReadsHeap checks the Materialized alias: accessors
// return heap allocations (not views of the mapping) with identical
// bytes, the original section keeps handing out views, and closing the
// alias leaves the original's mapping intact.
func TestMaterializedReadsHeap(t *testing.T) {
	if !mmapSupported {
		t.Skip("no mmap on this platform")
	}
	segs := testSegs(256)
	path, base := writeTestFile(t, []byte("hdr"), segs)
	s, done := openAt(t, path, base, ModeOn)
	defer done()

	m := s.Materialized()
	if m.Mapped {
		t.Fatal("Materialized section reports Mapped")
	}
	view, err := Int32s[int32](s, "ids")
	if err != nil {
		t.Fatal(err)
	}
	heap, err := Int32s[int32](m, "ids")
	if err != nil {
		t.Fatal(err)
	}
	if &view[0] == &heap[0] {
		t.Fatal("Materialized accessor returned a view of the mapping")
	}
	for i := range view {
		if view[i] != heap[i] {
			t.Fatalf("ids[%d]: view %d, heap %d", i, view[i], heap[i])
		}
	}
	if err := m.Close(); err != nil {
		t.Fatalf("close alias: %v", err)
	}
	if !s.Mapped {
		t.Fatal("closing the alias unmapped the original")
	}
	if again, err := s.Float32s("embs"); err != nil || len(again) == 0 {
		t.Fatalf("original section unusable after alias close: %v", err)
	}
}

func TestHeapAndMappedBytesIdentical(t *testing.T) {
	if !mmapSupported {
		t.Skip("no mmap on this platform")
	}
	segs := testSegs(333)
	path, base := writeTestFile(t, []byte{1, 2, 3}, segs)

	sm, doneM := openAt(t, path, base, ModeOn)
	defer doneM()
	sh, doneH := openAt(t, path, base, ModeOff)
	defer doneH()

	mf, _ := sm.Float32s("embs")
	hf, _ := sh.Float32s("embs")
	if len(mf) != len(hf) {
		t.Fatalf("len %d != %d", len(mf), len(hf))
	}
	for i := range mf {
		if math.Float32bits(mf[i]) != math.Float32bits(hf[i]) {
			t.Fatalf("f32[%d]: mapped %x heap %x", i, math.Float32bits(mf[i]), math.Float32bits(hf[i]))
		}
	}
}

// TestVerifySection: a section parses and CRC-verifies from any
// random-access source, and reports where its last payload ends.
func TestVerifySection(t *testing.T) {
	segs := testSegs(100)
	path, base := writeTestFile(t, []byte("prefix"), segs)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fi, _ := f.Stat()
	s, err := OpenReaderAt(f, path, fi.Size(), base)
	if err != nil {
		t.Fatalf("OpenReaderAt: %v", err)
	}
	if end := s.End(); end <= base || end > fi.Size() {
		t.Fatalf("section end %d outside (%d, %d]", end, base, fi.Size())
	}
}

// sectionEnd is the offset one past the last payload of the section at
// base of full, before its alignment padding.
func sectionEnd(t *testing.T, full []byte, base int64) int64 {
	t.Helper()
	s, err := OpenReaderAt(bytes.NewReader(full), "<test>", int64(len(full)), base)
	if err != nil {
		t.Fatal(err)
	}
	return s.End()
}

func TestTornWriteRejected(t *testing.T) {
	segs := testSegs(2000)
	path, base := writeTestFile(t, nil, segs)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The file ends with alignment padding; find the true end of the
	// last payload so the chop removes real data, not padding.
	end := sectionEnd(t, full, base)
	// Chop at several depths: inside the last payload, inside the
	// directory, inside the header.
	for _, keep := range []int{int(end) - 100, int(base) + headerSize + 10, int(base) + 5} {
		p := filepath.Join(t.TempDir(), "torn.efs")
		if err := os.WriteFile(p, full[:keep], 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		_, err = Open(f, base, ModeAuto)
		f.Close()
		if !errors.Is(err, durable.ErrTruncated) {
			t.Fatalf("keep=%d: got %v, want ErrTruncated", keep, err)
		}
		var ce *durable.CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("keep=%d: %v is not a *CorruptError", keep, err)
		}
	}
}

func TestBitFlipsRejected(t *testing.T) {
	segs := testSegs(500)
	path, base := writeTestFile(t, nil, segs)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	end := sectionEnd(t, full, base)
	// Flip one byte in the directory, and one deep inside the last
	// payload (end is past the final payload byte, before padding).
	for _, off := range []int64{base + headerSize + 24, end - 64} {
		p := filepath.Join(t.TempDir(), "flip.efs")
		b, _ := os.ReadFile(path)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := faultfs.CorruptFileByte(p, off, 0x40); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		_, err = Open(f, base, ModeAuto)
		f.Close()
		if err == nil {
			t.Fatalf("flip at %d: corruption not detected", off)
		}
		var ce *durable.CorruptError
		var ve *durable.VersionError
		if !errors.As(err, &ce) && !errors.As(err, &ve) {
			t.Fatalf("flip at %d: %v is not typed", off, err)
		}
	}
}

func TestFutureVersionRejected(t *testing.T) {
	segs := testSegs(10)
	path, base := writeTestFile(t, nil, segs)
	// version field lives at base+8 (uint16 LE); bump it to 2 and
	// refresh nothing — the dir CRC covers it, so to reach the version
	// check we must recompute... easier: VersionError must win BEFORE
	// the CRC check, which is exactly what a future writer would
	// produce (valid CRC under a layout we cannot parse).
	if err := faultfs.CorruptFileByte(path, base+8, 0x03); err != nil { // 1 ^ 3 = 2
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	_, err = Open(f, base, ModeAuto)
	var ve *durable.VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("got %v, want *VersionError", err)
	}
	if ve.Got != 2 || ve.Max != SectionVersion {
		t.Fatalf("VersionError got=%d max=%d", ve.Got, ve.Max)
	}
}

func TestForeignMagicRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "foreign.bin")
	if err := os.WriteFile(path, bytes.Repeat([]byte("notacolumnstore!"), 1024), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	_, err = Open(f, 0, ModeAuto)
	if !errors.Is(err, durable.ErrBadMagic) {
		t.Fatalf("got %v, want ErrBadMagic", err)
	}
}

func TestWriterValidation(t *testing.T) {
	ok := []SegmentData{F32Seg("a", []float32{1})}
	cases := []struct {
		name string
		segs []SegmentData
	}{
		{"empty", nil},
		{"dup names", []SegmentData{F32Seg("a", nil), I32Seg[int32]("a", nil)}},
		{"bad name", []SegmentData{F32Seg("has space", nil)}},
		{"long name", []SegmentData{F32Seg("aaaaaaaaaaaaaaaaa", nil)}},
		{"hand-rolled mismatch", []SegmentData{{Name: "x", Kind: KindF32, Count: 3, raw: []byte{0}}}},
		{"unknown kind", []SegmentData{{Name: "x", Kind: Kind(99), Count: 0}}},
	}
	for _, c := range cases {
		if _, _, err := WriteSection(&bytes.Buffer{}, 0, c.segs); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
	if _, _, err := WriteSection(&bytes.Buffer{}, 0, ok); err != nil {
		t.Errorf("valid segs rejected: %v", err)
	}
}

func TestParseModes(t *testing.T) {
	for in, want := range map[string]Mode{"auto": ModeAuto, "on": ModeOn, "off": ModeOff} {
		got, err := ParseMode(in)
		if err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	// Only the spellings the -mmap help lists; each refusal names them.
	for _, in := range []string{"", "ON", " on", "true", "1", "false", "0", "sometimes"} {
		_, err := ParseMode(in)
		if err == nil {
			t.Errorf("ParseMode(%q) accepted", in)
			continue
		}
		if want := fmt.Sprintf("colstore: unknown mmap mode %q (want auto, on, or off)", in); err.Error() != want {
			t.Errorf("ParseMode(%q) error %q, want %q", in, err, want)
		}
	}
}

func TestWrongKindLookup(t *testing.T) {
	path, base := writeTestFile(t, nil, testSegs(8))
	s, done := openAt(t, path, base, ModeOff)
	defer done()
	if _, err := s.Float32s("ids"); err == nil {
		t.Error("kind mismatch not rejected")
	}
	if _, err := Int32s[int32](s, "nosuch"); err == nil {
		t.Error("missing segment not rejected")
	}
}

func TestEmptySegmentsRoundTrip(t *testing.T) {
	segs := []SegmentData{F32Seg("embs", nil), I32Seg("ids", []int32{5})}
	path, base := writeTestFile(t, nil, segs)
	for _, mode := range []Mode{ModeOff, ModeAuto} {
		s, done := openAt(t, path, base, mode)
		f32, err := s.Float32s("embs")
		if err != nil || len(f32) != 0 {
			t.Fatalf("%v: empty segment: %v, len %d", mode, err, len(f32))
		}
		i32, err := Int32s[int32](s, "ids")
		if err != nil || len(i32) != 1 || i32[0] != 5 {
			t.Fatalf("%v: ids = %v, %v", mode, i32, err)
		}
		done()
	}
}
