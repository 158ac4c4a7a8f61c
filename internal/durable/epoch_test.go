package durable

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestEpochFreshLogIsEpochZero(t *testing.T) {
	w, err := OpenWAL(t.TempDir(), WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if w.Epoch() != 0 || w.Fenced() {
		t.Fatalf("fresh log: epoch %d fenced %v", w.Epoch(), w.Fenced())
	}
}

func TestFenceRejectsAppendsPersistently(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 3)
	if err := w.Fence(5); err != nil {
		t.Fatal(err)
	}
	var fe *FencedError
	if _, err := w.Append([]byte("x")); !errors.As(err, &fe) {
		t.Fatalf("append on fenced log: got %v, want *FencedError", err)
	} else if fe.Epoch != 5 || fe.Op != "append" {
		t.Fatalf("fenced error fields: %+v", fe)
	}
	if err := w.AppendReplicated(4, []byte("x")); !errors.As(err, &fe) {
		t.Fatalf("replicated append on fenced log: got %v, want *FencedError", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// The fence survives a restart.
	w2, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if w2.Epoch() != 5 || !w2.Fenced() {
		t.Fatalf("after reopen: epoch %d fenced %v", w2.Epoch(), w2.Fenced())
	}
	if _, err := w2.Append([]byte("x")); !errors.As(err, &fe) {
		t.Fatalf("append after reopen: got %v, want *FencedError", err)
	}
}

func TestFenceStaleEpochRefused(t *testing.T) {
	w, err := OpenWAL(t.TempDir(), WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.BumpEpoch(); err != nil { // epoch 1
		t.Fatal(err)
	}
	var fe *FencedError
	if err := w.Fence(1); !errors.As(err, &fe) {
		t.Fatalf("fence at current epoch: got %v, want *FencedError", err)
	}
	if err := w.Fence(0); !errors.As(err, &fe) {
		t.Fatalf("fence at older epoch: got %v, want *FencedError", err)
	}
	if w.Fenced() {
		t.Fatal("stale fence requests must not depose the leader")
	}
}

func TestBumpEpochClearsFence(t *testing.T) {
	w, err := OpenWAL(t.TempDir(), WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Fence(3); err != nil {
		t.Fatal(err)
	}
	got, err := w.BumpEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if got != 4 || w.Fenced() {
		t.Fatalf("after bump: epoch %d fenced %v", got, w.Fenced())
	}
	if _, err := w.Append([]byte("promoted")); err != nil {
		t.Fatalf("append after promotion: %v", err)
	}
}

func TestAdoptEpoch(t *testing.T) {
	w, err := OpenWAL(t.TempDir(), WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.AdoptEpoch(7); err != nil {
		t.Fatal(err)
	}
	if w.Epoch() != 7 || w.Fenced() {
		t.Fatalf("after adopt: epoch %d fenced %v", w.Epoch(), w.Fenced())
	}
	if err := w.AdoptEpoch(7); err != nil { // no-op
		t.Fatal(err)
	}
	var fe *FencedError
	if err := w.AdoptEpoch(6); !errors.As(err, &fe) {
		t.Fatalf("adopt older epoch: got %v, want *FencedError", err)
	} else if fe.Op != "tail" {
		t.Fatalf("adopt older epoch: op %q", fe.Op)
	}
}

func TestAppendReplicatedSequencing(t *testing.T) {
	dir := t.TempDir()
	// A follower bootstrapped from a snapshot at seq 10 starts at 11.
	w, err := OpenWAL(dir, WALOptions{InitialSeq: 11})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendReplicated(11, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendReplicated(13, []byte("gap")); err == nil {
		t.Fatal("out-of-order replicated append must be rejected")
	}
	if err := w.AppendReplicated(11, []byte("dup")); err == nil {
		t.Fatal("duplicate replicated append must be rejected")
	}
	if err := w.AppendReplicated(12, []byte("b")); err != nil {
		t.Fatal(err)
	}
	if w.LastSeq() != 12 {
		t.Fatalf("LastSeq = %d, want 12", w.LastSeq())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen: the sequence space continues from the replicated records.
	w2, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if got := replayAll(t, w2, 10); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("replay after replicated appends: %v", got)
	}
	// Without the snapshot at 10, records 1-10 are a hole, not a replay.
	var ce *CorruptError
	if err := w2.Replay(0, func(uint64, []byte) error { return nil }); !errors.As(err, &ce) {
		t.Fatalf("replay from before the log's start: %v, want *CorruptError", err)
	}
}

func TestEpochFileCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Fence(2); err != nil {
		t.Fatal(err)
	}
	w.Close()

	path := filepath.Join(dir, epochFileName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[10] ^= 0xFF
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	var ce *CorruptError
	if _, err := OpenWAL(dir, WALOptions{}); !errors.As(err, &ce) {
		t.Fatalf("corrupt epoch file: got %v, want *CorruptError", err)
	}
}
