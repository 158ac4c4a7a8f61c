package durable

import (
	"bytes"
	"errors"
	"io"
	"os"
	"testing"
)

// The contract under test: every injected fault either recovers fully
// or fails with a typed error — never a silent partial success.

func TestFailingWriterSurfacesError(t *testing.T) {
	var sink bytes.Buffer
	fw := &FailingWriter{W: &sink, Limit: 10}
	if err := WriteContainer(fw, 1, bytes.Repeat([]byte("x"), 100)); err == nil {
		t.Fatal("write through a failing disk reported success")
	}
	// Whatever did land must be rejected on read, not half-parsed.
	if _, _, err := readContainer(bytes.NewReader(sink.Bytes()), "f", 1); err == nil {
		t.Fatal("partial container accepted")
	}
}

func TestErrorAfterNWriter(t *testing.T) {
	var sink bytes.Buffer
	// First write (header) succeeds, second (payload) fails: the classic
	// header-without-body tear.
	ew := &ErrorAfterNWriter{W: &sink, N: 1}
	if err := WriteContainer(ew, 1, []byte("payload")); !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
	_, _, err := readContainer(bytes.NewReader(sink.Bytes()), "f", 1)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("header-only container: want ErrTruncated, got %v", err)
	}
}

func TestTornWriterProducesDetectableTear(t *testing.T) {
	payload := bytes.Repeat([]byte("engine state "), 50)
	var full bytes.Buffer
	if err := WriteContainer(&full, 1, payload); err != nil {
		t.Fatal(err)
	}
	// A torn write reports success to the writer but only a prefix hits
	// disk. Every possible tear point must be detected on read.
	for _, limit := range []int64{0, 5, 19, 20, 21, int64(full.Len()) - 1} {
		var disk bytes.Buffer
		tw := &TornWriter{W: &disk, Limit: limit}
		if err := WriteContainer(tw, 1, payload); err != nil {
			t.Fatalf("torn writer must look successful, got %v", err)
		}
		if _, _, err := readContainer(bytes.NewReader(disk.Bytes()), "f", 1); !errors.Is(err, ErrTruncated) {
			t.Fatalf("tear at %d: want ErrTruncated, got %v", limit, err)
		}
	}
}

func TestTruncateReader(t *testing.T) {
	src := bytes.Repeat([]byte("abc"), 10)
	tr := &TruncateReader{R: bytes.NewReader(src), Limit: 7}
	got, err := io.ReadAll(tr)
	if err != nil || len(got) != 7 {
		t.Fatalf("got %d bytes, %v", len(got), err)
	}
}

func TestFlipReaderFlipsExactlyOneByte(t *testing.T) {
	src := bytes.Repeat([]byte("abcdefgh"), 4)
	fr := &FlipReader{R: bytes.NewReader(src), Offset: 13, Mask: 0xFF}
	got, err := io.ReadAll(fr)
	if err != nil || len(got) != len(src) {
		t.Fatal(err)
	}
	diff := 0
	for i := range src {
		if got[i] != src[i] {
			diff++
			if int64(i) != 13 {
				t.Fatalf("flipped wrong byte %d", i)
			}
		}
	}
	if diff != 1 {
		t.Fatalf("flipped %d bytes", diff)
	}
}

func TestWALAppendFaultDoesNotAcknowledge(t *testing.T) {
	// An Append that fails mid-write leaves a torn tail; the next open
	// recovers every acknowledged record and drops the unacknowledged
	// tear. Simulated here by writing a valid log, then appending raw
	// partial-record bytes the way a crashed Append would have.
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append([]byte("acknowledged")); err != nil {
		t.Fatal(err)
	}
	w.Close()

	segs, _ := listSegments(dir)
	f, err := os.OpenFile(segs[0].path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	rec := encodeRecord(2, []byte("never finished"))
	if _, err := f.Write(rec[:len(rec)-6]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	w2, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer w2.Close()
	if st := w2.Stats(); !st.TornTail || st.Records != 1 {
		t.Fatalf("stats: %+v", st)
	}
	var got []string
	w2.Replay(0, func(_ uint64, p []byte) error { got = append(got, string(p)); return nil })
	if len(got) != 1 || got[0] != "acknowledged" {
		t.Fatalf("replay: %v", got)
	}
}
