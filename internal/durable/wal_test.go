package durable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"expertfind/internal/durable/faultfs"
)

func appendN(t *testing.T, w *WAL, start, n int) {
	t.Helper()
	for i := start; i < start+n; i++ {
		seq, err := w.Append([]byte(fmt.Sprintf("record-%04d", i)))
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("append %d: got seq %d", i, seq)
		}
	}
}

func replayAll(t *testing.T, w *WAL, after uint64) []string {
	t.Helper()
	var got []string
	err := w.Replay(after, func(seq uint64, payload []byte) error {
		got = append(got, string(payload))
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return got
}

func TestWALAppendReplay(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 10)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	st := w2.Stats()
	if st.Records != 10 || st.LastSeq != 10 || st.TornTail {
		t.Fatalf("stats after reopen: %+v", st)
	}
	got := replayAll(t, w2, 0)
	if len(got) != 10 || got[0] != "record-0000" || got[9] != "record-0009" {
		t.Fatalf("replay: %v", got)
	}
	// Replay after a snapshot point skips covered records.
	if got := replayAll(t, w2, 7); len(got) != 3 || got[0] != "record-0007" {
		t.Fatalf("partial replay: %v", got)
	}
	// Appends continue the sequence.
	seq, err := w2.Append([]byte("record-0010"))
	if err != nil || seq != 11 {
		t.Fatalf("append after reopen: seq %d, %v", seq, err)
	}
}

func TestWALSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation every couple of records.
	w, err := OpenWAL(dir, WALOptions{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 20)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 5 {
		t.Fatalf("expected many segments, got %d", len(segs))
	}
	w2, err := OpenWAL(dir, WALOptions{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if got := replayAll(t, w2, 0); len(got) != 20 || got[19] != "record-0019" {
		t.Fatalf("replay across segments: %d records", len(got))
	}
}

func TestWALTornTailRecovered(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 5)
	w.Close()

	// Simulate a crash mid-append: chop bytes off the final record.
	segs, _ := listSegments(dir)
	path := segs[len(segs)-1].path
	st, _ := os.Stat(path)
	if err := os.Truncate(path, st.Size()-4); err != nil {
		t.Fatal(err)
	}

	w2, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatalf("torn tail must be recoverable: %v", err)
	}
	defer w2.Close()
	rs := w2.Stats()
	if !rs.TornTail || rs.Records != 4 || rs.LastSeq != 4 {
		t.Fatalf("stats: %+v", rs)
	}
	if got := replayAll(t, w2, 0); len(got) != 4 {
		t.Fatalf("replay after torn tail: %v", got)
	}
	// The sequence resumes where the surviving records end: the torn
	// record was never acknowledged, so its sequence is reused.
	seq, err := w2.Append([]byte("replacement"))
	if err != nil || seq != 5 {
		t.Fatalf("append after torn tail: seq %d, %v", seq, err)
	}
}

func TestWALBitFlipFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 6)
	w.Close()

	segs, _ := listSegments(dir)
	// Flip a payload byte of the SECOND record: mid-file corruption, not
	// a torn tail, must abort the open with a typed checksum error.
	off := int64(recordHeaderSize + len("record-0000") + recordHeaderSize + 3)
	if err := faultfs.CorruptFileByte(segs[0].path, off, 0x01); err != nil {
		t.Fatal(err)
	}
	_, err = OpenWAL(dir, WALOptions{})
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("want ErrChecksum, got %v", err)
	}
	var ce *CorruptError
	if !errors.As(err, &ce) || ce.Offset != recordHeaderSize+int64(len("record-0000")) {
		t.Fatalf("corrupt error context: %+v", err)
	}
}

func TestWALCorruptionInSealedSegmentFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 10) // several sealed segments
	w.Close()

	segs, _ := listSegments(dir)
	if len(segs) < 3 {
		t.Fatalf("need sealed segments, got %d", len(segs))
	}
	// Truncating a NON-final segment is damage, not a torn tail.
	st, _ := os.Stat(segs[0].path)
	if err := os.Truncate(segs[0].path, st.Size()-3); err != nil {
		t.Fatal(err)
	}
	_, err = OpenWAL(dir, WALOptions{SegmentBytes: 64})
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("want ErrTruncated, got %v", err)
	}
}

func TestWALTruncateThrough(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 12)
	before, _ := listSegments(dir)
	if err := w.TruncateThrough(6); err != nil {
		t.Fatal(err)
	}
	after, _ := listSegments(dir)
	if len(after) >= len(before) {
		t.Fatalf("no segments reclaimed: %d -> %d", len(before), len(after))
	}
	// Records past the snapshot point must survive.
	got := replayAll(t, w, 6)
	if len(got) != 6 || got[0] != "record-0006" || got[5] != "record-0011" {
		t.Fatalf("post-truncation replay: %v", got)
	}
	w.Close()

	// Reopen after truncation: sequences resume correctly even though
	// the log no longer starts at 1.
	w2, err := OpenWAL(dir, WALOptions{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	seq, err := w2.Append([]byte("record-0012"))
	if err != nil || seq != 13 {
		t.Fatalf("append after truncate+reopen: seq %d, %v", seq, err)
	}
}

func TestWALTruncateThroughEverything(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 5)
	// Snapshot covers everything: the active segment rotates and the
	// sealed one is removed; nothing replays.
	if err := w.TruncateThrough(5); err != nil {
		t.Fatal(err)
	}
	if got := replayAll(t, w, 5); len(got) != 0 {
		t.Fatalf("replay after full truncation: %v", got)
	}
	seq, err := w.Append([]byte("next"))
	if err != nil || seq != 6 {
		t.Fatalf("append after full truncation: seq %d, %v", seq, err)
	}
	w.Close()

	w2, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if got := replayAll(t, w2, 5); len(got) != 1 || got[0] != "next" {
		t.Fatalf("replay after reopen: %v", got)
	}
}

func TestWALSyncPolicies(t *testing.T) {
	for _, pol := range []SyncPolicy{SyncAlways, SyncNever} {
		t.Run(pol.String(), func(t *testing.T) {
			dir := t.TempDir()
			w, err := OpenWAL(dir, WALOptions{Sync: pol})
			if err != nil {
				t.Fatal(err)
			}
			appendN(t, w, 0, 8)
			// Appends are visible to a reader of the live log whatever
			// the policy, before any fsync.
			if got := replayAll(t, w, 0); len(got) != 8 {
				t.Fatalf("%v: live log holds %d records, want 8", pol, len(got))
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			w2, err := OpenWAL(dir, WALOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer w2.Close()
			if got := replayAll(t, w2, 0); len(got) != 8 {
				t.Fatalf("%v: lost records: %d", pol, len(got))
			}
		})
	}
}

func TestWALClosedOperationsFail(t *testing.T) {
	w, err := OpenWAL(t.TempDir(), WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil { // double close is a no-op
		t.Fatal(err)
	}
	if _, err := w.Append([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append on closed WAL: %v", err)
	}
	if _, err := w.ReadFrom(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("read of closed WAL: %v", err)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for s, want := range map[string]SyncPolicy{"always": SyncAlways, "never": SyncNever} {
		got, err := ParseSyncPolicy(s)
		if err != nil || got != want {
			t.Fatalf("%q: %v, %v", s, got, err)
		}
		if got.String() != s {
			t.Fatalf("%q parses to a policy named %q", s, got)
		}
	}
	// Nor is there an "interval" policy: the WAL has no background flusher.
	for _, s := range []string{"interval", "sometimes", "Always", ""} {
		_, err := ParseSyncPolicy(s)
		if err == nil {
			t.Fatalf("policy %q accepted", s)
		}
		if msg := err.Error(); !strings.Contains(msg, "always") || !strings.Contains(msg, "never") {
			t.Fatalf("refusal of %q does not name both policies: %v", s, err)
		}
	}
}

func TestWALForeignFileRejected(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal-notanumber.log"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenWAL(dir, WALOptions{}); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("foreign segment name: %v", err)
	}
}
