package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"testing"
)

// collect drains an iterator into (seq, payload-copy) pairs.
func collect(t *testing.T, it *WALIterator) (seqs []uint64, payloads []string) {
	t.Helper()
	defer it.Close()
	for {
		seq, payload, err := it.Next()
		if err == io.EOF {
			return seqs, payloads
		}
		if err != nil {
			t.Fatalf("iterator: %v", err)
		}
		seqs = append(seqs, seq)
		payloads = append(payloads, string(payload))
	}
}

// openSmallSegments opens a WAL whose tiny segments force several
// rotations for the given record count.
func openSmallSegments(t *testing.T, dir string) *WAL {
	t.Helper()
	w, err := OpenWAL(dir, WALOptions{SegmentBytes: 64, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestReadFromMidSegment(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{Sync: SyncNever}) // one big segment
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	appendN(t, w, 0, 20)

	// from = 7 lands in the middle of the single segment: the head must
	// be skipped, nothing repeated, nothing missing.
	it, err := w.ReadFrom(7)
	if err != nil {
		t.Fatal(err)
	}
	seqs, payloads := collect(t, it)
	if len(seqs) != 14 || seqs[0] != 7 || seqs[13] != 20 {
		t.Fatalf("mid-segment read: seqs %v", seqs)
	}
	if payloads[0] != "record-0006" || payloads[13] != "record-0019" {
		t.Fatalf("mid-segment read: payloads %v", payloads)
	}
}

func TestReadFromSpansSegments(t *testing.T) {
	dir := t.TempDir()
	w := openSmallSegments(t, dir)
	defer w.Close()
	appendN(t, w, 0, 30)
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected several segments, got %d", len(segs))
	}

	// Start inside the second segment so the iterator crosses at least
	// one sealed→sealed and one sealed→active boundary.
	from := segs[1].firstSeq + 1
	it, err := w.ReadFrom(from)
	if err != nil {
		t.Fatal(err)
	}
	seqs, _ := collect(t, it)
	if uint64(len(seqs)) != 30-from+1 {
		t.Fatalf("got %d records from %d, want %d", len(seqs), from, 30-from+1)
	}
	for i, s := range seqs {
		if s != from+uint64(i) {
			t.Fatalf("gap at %d: %v", i, seqs)
		}
	}
}

func TestReadFromPastLastSeq(t *testing.T) {
	dir := t.TempDir()
	w := openSmallSegments(t, dir)
	defer w.Close()
	appendN(t, w, 0, 5)

	// One past LastSeq: a valid position (a caught-up follower), yielding
	// an immediately-exhausted iterator — not an error.
	it, err := w.ReadFrom(w.LastSeq() + 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := it.Next(); err != io.EOF {
		t.Fatalf("past-LastSeq Next: got %v, want io.EOF", err)
	}
	it.Close()

	// Far past is the same story.
	it, err = w.ReadFrom(w.LastSeq() + 100)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := it.Next(); err != io.EOF {
		t.Fatalf("far-past Next: got %v, want io.EOF", err)
	}
	it.Close()
}

func TestReadFromCompacted(t *testing.T) {
	dir := t.TempDir()
	w := openSmallSegments(t, dir)
	defer w.Close()
	appendN(t, w, 0, 30)
	if err := w.TruncateThrough(15); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	oldest := segs[0].firstSeq
	if oldest == 1 {
		t.Fatal("truncation removed nothing; test needs smaller segments")
	}

	if _, err := w.ReadFrom(oldest - 1); !errors.Is(err, ErrCompacted) {
		t.Fatalf("read below oldest: got %v, want ErrCompacted", err)
	}
	// The oldest surviving record is still readable.
	it, err := w.ReadFrom(oldest)
	if err != nil {
		t.Fatal(err)
	}
	seqs, _ := collect(t, it)
	if seqs[0] != oldest || seqs[len(seqs)-1] != 30 {
		t.Fatalf("read from oldest: %v", seqs)
	}
}

func TestReadFromIgnoresConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	w := openSmallSegments(t, dir)
	defer w.Close()
	appendN(t, w, 0, 10)

	it, err := w.ReadFrom(1)
	if err != nil {
		t.Fatal(err)
	}
	// Records appended after ReadFrom are beyond the iterator's promise.
	appendN(t, w, 10, 10)
	seqs, _ := collect(t, it)
	if len(seqs) != 10 || seqs[9] != 10 {
		t.Fatalf("iterator leaked past its snapshot: %v", seqs)
	}
	// A fresh iterator picks up where the old one stopped.
	it2, err := w.ReadFrom(11)
	if err != nil {
		t.Fatal(err)
	}
	seqs2, _ := collect(t, it2)
	if len(seqs2) != 10 || seqs2[0] != 11 || seqs2[9] != 20 {
		t.Fatalf("resume read: %v", seqs2)
	}
}

func TestRecordReaderRoundTrip(t *testing.T) {
	var wire bytes.Buffer
	for i := 1; i <= 5; i++ {
		wire.Write(MarshalRecord(uint64(i), []byte(fmt.Sprintf("payload-%d", i))))
	}
	rr := NewRecordReader(bytes.NewReader(wire.Bytes()))
	for i := 1; i <= 5; i++ {
		seq, payload, err := rr.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if seq != uint64(i) || string(payload) != fmt.Sprintf("payload-%d", i) {
			t.Fatalf("record %d: seq %d payload %q", i, seq, payload)
		}
	}
	if _, _, err := rr.Next(); err != io.EOF {
		t.Fatalf("clean end: got %v, want io.EOF", err)
	}
}

func TestRecordReaderTornAndCorrupt(t *testing.T) {
	rec := MarshalRecord(7, []byte("payload"))

	// Cut mid-record: a torn tail on the wire, not corruption.
	rr := NewRecordReader(bytes.NewReader(rec[:len(rec)-3]))
	if _, _, err := rr.Next(); err != io.ErrUnexpectedEOF {
		t.Fatalf("torn record: got %v, want io.ErrUnexpectedEOF", err)
	}
	// Cut mid-header too.
	rr = NewRecordReader(bytes.NewReader(rec[:recordHeaderSize-2]))
	if _, _, err := rr.Next(); err != io.ErrUnexpectedEOF {
		t.Fatalf("torn header: got %v, want io.ErrUnexpectedEOF", err)
	}

	// A flipped payload bit is corruption.
	bad := append([]byte(nil), rec...)
	bad[recordHeaderSize] ^= 0x01
	rr = NewRecordReader(bytes.NewReader(bad))
	var ce *CorruptError
	if _, _, err := rr.Next(); !errors.As(err, &ce) || !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupt record: got %v, want *CorruptError(ErrChecksum)", err)
	}
}

// TestRecordReaderLyingLengthDoesNotAllocate: a 16-byte stream whose
// header declares the largest payload a record may have ends torn, having
// allocated room for the bytes that arrived rather than the 64 MiB the
// header claims. A follower reads its leader's bytes through this reader.
func TestRecordReaderLyingLengthDoesNotAllocate(t *testing.T) {
	hdr := make([]byte, recordHeaderSize)
	binary.LittleEndian.PutUint32(hdr[0:4], MaxRecordBytes)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := NewRecordReader(bytes.NewReader(hdr)).Next()
	runtime.ReadMemStats(&after)
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("header with no payload: got %v, want io.ErrUnexpectedEOF", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("reading a 16-byte stream allocated %d B, want under 1 MiB", got)
	}
}

func TestReadFromZero(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.ReadFrom(0); err == nil {
		t.Fatal("ReadFrom(0) should be rejected")
	}
}
