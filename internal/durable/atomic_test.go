package durable

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestAtomicWriteFileReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.bin")
	if err := AtomicWriteFile(path, []byte("first"), true); err != nil {
		t.Fatal(err)
	}
	if err := AtomicWriteFile(path, []byte("second"), true); err != nil {
		t.Fatal(err)
	}
	payload, err := os.ReadFile(path)
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
	if err := AtomicWriteFile(path, []byte("good"), true); err != nil {
		t.Fatal(err)
	}
	// Writing into a removed directory must fail without touching path.
	bad := filepath.Join(dir, "gone", "snap.bin")
	if err := AtomicWriteFile(bad, []byte("x"), true); err == nil {
		t.Fatal("write into missing directory succeeded")
	}
	payload, err := os.ReadFile(path)
	if err != nil || string(payload) != "good" {
		t.Fatalf("old file damaged: %q, %v", payload, err)
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
