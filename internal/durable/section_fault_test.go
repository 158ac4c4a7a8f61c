package durable_test

import (
	"bytes"
	"errors"
	"testing"

	"expertfind/internal/colstore"
	"expertfind/internal/durable"
	"expertfind/internal/durable/faultfs"
)

// The fault writers against the one on-disk format written in many
// writes, a snapshot's columnar section: whatever a failing or torn disk
// leaves behind is refused on read, typed, never opened.

func faultSegments() []colstore.SegmentData {
	return []colstore.SegmentData{
		colstore.U8Seg("meta", bytes.Repeat([]byte("engine state "), 50)),
		colstore.F32Seg("embs", make([]float32, 2000)),
	}
}

func openSection(b []byte) error {
	_, err := colstore.OpenReaderAt(bytes.NewReader(b), "f", int64(len(b)), 0)
	return err
}

func TestFailingWriterSurfacesError(t *testing.T) {
	var sink bytes.Buffer
	fw := &faultfs.FailingWriter{W: &sink, Limit: 10}
	if _, _, err := colstore.WriteSection(fw, 0, faultSegments()); err == nil {
		t.Fatal("write through a failing disk reported success")
	}
	// Whatever did land must be rejected on read, not half-parsed.
	if err := openSection(sink.Bytes()); !errors.Is(err, durable.ErrTruncated) {
		t.Fatalf("partial section: want ErrTruncated, got %v", err)
	}
}

func TestErrorAfterNWriter(t *testing.T) {
	var sink bytes.Buffer
	// First write (header and directory) succeeds, the second (the first
	// payload's padding) fails: the classic directory-without-body tear.
	ew := &faultfs.ErrorAfterNWriter{W: &sink, N: 1}
	if _, _, err := colstore.WriteSection(ew, 0, faultSegments()); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("want faultfs.ErrInjected, got %v", err)
	}
	if err := openSection(sink.Bytes()); !errors.Is(err, durable.ErrTruncated) {
		t.Fatalf("directory-only section: want ErrTruncated, got %v", err)
	}
}

func TestTornWriterProducesDetectableTear(t *testing.T) {
	var full bytes.Buffer
	if _, _, err := colstore.WriteSection(&full, 0, faultSegments()); err != nil {
		t.Fatal(err)
	}
	// A torn write reports success to the writer but only a prefix hits
	// disk. Every tear point — in the header, the directory, a payload,
	// the final padding — must be detected on read.
	for _, limit := range []int64{0, 5, 19, 20, 21, 100, colstore.PageAlign, colstore.PageAlign + 100, int64(full.Len()) - 1} {
		var disk bytes.Buffer
		tw := &faultfs.TornWriter{W: &disk, Limit: limit}
		if _, _, err := colstore.WriteSection(tw, 0, faultSegments()); err != nil {
			t.Fatalf("torn writer must look successful, got %v", err)
		}
		if err := openSection(disk.Bytes()); !errors.Is(err, durable.ErrTruncated) {
			t.Fatalf("tear at %d: want ErrTruncated, got %v", limit, err)
		}
	}
}
