package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// readContainer reads the container at the head of r, for the tests that
// only look at what it holds.
func readContainer(r io.Reader, name string, maxVersion uint16) (uint16, []byte, error) {
	v, payload, _, err := ReadContainerPrefix(r, name, maxVersion)
	return v, payload, err
}

func TestContainerRoundTrip(t *testing.T) {
	payload := []byte("the engine snapshot payload, opaque to durable")
	var buf bytes.Buffer
	if err := WriteContainer(&buf, 3, payload); err != nil {
		t.Fatal(err)
	}
	v, got, err := readContainer(bytes.NewReader(buf.Bytes()), "<stream>", 3)
	if err != nil {
		t.Fatal(err)
	}
	if v != 3 || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: version %d payload %q", v, got)
	}
}

func TestContainerEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteContainer(&buf, 1, nil); err != nil {
		t.Fatal(err)
	}
	_, got, err := readContainer(bytes.NewReader(buf.Bytes()), "<stream>", 1)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty payload: %v, %d bytes", err, len(got))
	}
}

func TestContainerRejectsBadMagic(t *testing.T) {
	data := []byte("GOBGOBGOB this is not a container at all........")
	_, _, err := readContainer(bytes.NewReader(data), "f", 1)
	if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("want ErrBadMagic, got %v", err)
	}
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CorruptError, got %T", err)
	}
}

func TestContainerRejectsFutureVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteContainer(&buf, 9, []byte("x")); err != nil {
		t.Fatal(err)
	}
	_, _, err := readContainer(bytes.NewReader(buf.Bytes()), "f", 2)
	var ve *VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("want *VersionError, got %v", err)
	}
	if ve.Got != 9 || ve.Max != 2 {
		t.Fatalf("version error fields: %+v", ve)
	}
}

func TestContainerRejectsTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteContainer(&buf, 1, bytes.Repeat([]byte("p"), 100)); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Every proper prefix must be rejected as truncated.
	for _, cut := range []int{0, 3, containerHeaderSize - 1, containerHeaderSize, len(full) - 1} {
		_, _, err := readContainer(bytes.NewReader(full[:cut]), "f", 1)
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut at %d: want ErrTruncated, got %v", cut, err)
		}
	}
}

func TestContainerRejectsBitFlips(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteContainer(&buf, 1, bytes.Repeat([]byte("payload"), 20)); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Flip one byte at every offset; every flip must be detected.
	for off := 0; off < len(full); off++ {
		r := &FlipReader{R: bytes.NewReader(full), Offset: int64(off), Mask: 0x40}
		_, _, err := readContainer(r, "f", 1)
		if err == nil {
			t.Fatalf("bit flip at offset %d went undetected", off)
		}
		var ce *CorruptError
		var ve *VersionError
		if !errors.As(err, &ce) && !errors.As(err, &ve) {
			t.Fatalf("flip at %d: untyped error %T %v", off, err, err)
		}
	}
}

// writeContainerFile and readContainerFile persist a container the way
// the snapshot store does: AtomicWriteTo around WriteContainer.
func writeContainerFile(path string, payload []byte) error {
	return AtomicWriteTo(path, true, func(f *os.File) error {
		return WriteContainer(f, 1, payload)
	})
}

func readContainerFile(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	_, payload, err := readContainer(f, path, 1)
	return payload, err
}

func TestContainerFileAtomicReplace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.bin")
	if err := writeContainerFile(path, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := writeContainerFile(path, []byte("second")); err != nil {
		t.Fatal(err)
	}
	payload, err := readContainerFile(path)
	if err != nil || string(payload) != "second" {
		t.Fatalf("got %q, %v", payload, err)
	}
	// No temp files may linger after successful replaces.
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 {
		t.Fatalf("directory not clean after atomic writes: %d entries", len(ents))
	}
}

func TestAtomicWriteFailureKeepsOldFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.bin")
	if err := writeContainerFile(path, []byte("good")); err != nil {
		t.Fatal(err)
	}
	// Writing into a removed directory must fail without touching path.
	bad := filepath.Join(dir, "gone", "snap.bin")
	if err := AtomicWriteFile(bad, []byte("x"), true); err == nil {
		t.Fatal("write into missing directory succeeded")
	}
	payload, err := readContainerFile(path)
	if err != nil || string(payload) != "good" {
		t.Fatalf("old file damaged: %q, %v", payload, err)
	}
}

func TestReadContainerPrefixToleratesTrailer(t *testing.T) {
	payload := []byte("v2 gob payload")
	var buf bytes.Buffer
	if err := WriteContainer(&buf, 2, payload); err != nil {
		t.Fatal(err)
	}
	wantEnd := int64(buf.Len())
	buf.WriteString("columnar section bytes follow the container here")

	v, got, end, err := ReadContainerPrefix(bytes.NewReader(buf.Bytes()), "<stream>", 2)
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 || !bytes.Equal(got, payload) || end != wantEnd {
		t.Fatalf("prefix read: version %d payload %q end %d (want end %d)", v, got, end, wantEnd)
	}

	// The prefix reader keeps the full corruption taxonomy.
	torn := buf.Bytes()[:10]
	if _, _, _, err := ReadContainerPrefix(bytes.NewReader(torn), "<s>", 2); !errors.Is(err, ErrTruncated) {
		t.Fatalf("torn prefix: %v", err)
	}
	flip := append([]byte(nil), buf.Bytes()...)
	flip[containerHeaderSize+2] ^= 0x10
	if _, _, _, err := ReadContainerPrefix(bytes.NewReader(flip), "<s>", 2); !errors.Is(err, ErrChecksum) {
		t.Fatalf("flipped prefix: %v", err)
	}
	if _, _, _, err := ReadContainerPrefix(bytes.NewReader(buf.Bytes()), "<s>", 1); err == nil {
		t.Fatal("future version accepted")
	}
}

// TestLyingHeaderCostsOnlyTheStream: the declared payload length is not
// trusted with an allocation. A header claiming the 4 GiB maximum over a
// 32-byte stream is a truncation, found after reading those 32 bytes —
// whether or not the reader can tell its own size.
func TestLyingHeaderCostsOnlyTheStream(t *testing.T) {
	var file bytes.Buffer
	if err := WriteContainer(&file, 1, make([]byte, 12)); err != nil {
		t.Fatal(err)
	}
	raw := file.Bytes() // 20-byte header + 12 bytes = 32
	binary.LittleEndian.PutUint64(raw[8:16], uint64(MaxPayloadBytes))

	for name, r := range map[string]io.Reader{
		"seekable": bytes.NewReader(raw),
		"stream":   struct{ io.Reader }{bytes.NewReader(raw)},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, _, err := ReadContainerPrefix(r, "lying", 1)
		runtime.ReadMemStats(&after)

		var ce *CorruptError
		if !errors.As(err, &ce) || !errors.Is(err, ErrTruncated) {
			t.Fatalf("%s: got %v, want *CorruptError wrapping ErrTruncated", name, err)
		}
		if ce.Offset != int64(len(raw)) {
			t.Fatalf("%s: truncation reported at byte %d, want %d", name, ce.Offset, len(raw))
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Fatalf("%s: reading a 32-byte stream allocated %d bytes", name, grew)
		}
	}
}

func TestAtomicWriteToStreams(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.efs")
	if err := AtomicWriteTo(path, true, func(f *os.File) error {
		for i := 0; i < 3; i++ {
			if _, err := f.Write([]byte("chunk-")); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil || string(b) != "chunk-chunk-chunk-" {
		t.Fatalf("content %q err %v", b, err)
	}

	// A failing producer must leave the old file untouched and no temp
	// files behind.
	if err := AtomicWriteTo(path, false, func(f *os.File) error {
		f.Write([]byte("partial"))
		return errors.New("producer failed")
	}); err == nil {
		t.Fatal("producer error swallowed")
	}
	b, _ = os.ReadFile(path)
	if string(b) != "chunk-chunk-chunk-" {
		t.Fatalf("old file clobbered: %q", b)
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 {
		t.Fatalf("temp files left behind: %v", ents)
	}
}
