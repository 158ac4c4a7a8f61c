// Package durable provides the crash-safety substrate for the online
// engine: a segmented write-ahead log with configurable fsync policy,
// atomic file replacement, the typed errors every on-disk format of the
// project reports damage with, and fault-injection helpers for testing
// recovery. The snapshot's format is internal/colstore's section.
//
// The package is deliberately generic — it moves opaque byte payloads
// and knows nothing about engines or papers. internal/core layers the
// engine snapshot format and update records on top, internal/serve and
// cmd/expertserve wire the lifecycle (readiness, periodic snapshots,
// graceful shutdown).
//
// Every failure mode is a typed error: callers distinguish a truncated
// file (ErrTruncated), a checksum mismatch (ErrChecksum), a foreign
// file (ErrBadMagic) and a version it does not read (VersionError) with errors.Is
// / errors.As, and can decide to fail loudly instead of serving partial
// state. Nothing in this package papers over corruption silently; the
// single deliberate exception is a torn tail in the final WAL segment,
// which is the expected artifact of a crash mid-append and is reported,
// truncated, and recovered from.
package durable

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// Sentinel errors for the distinguishable corruption classes. They are
// usually wrapped in a *CorruptError carrying file and offset context.
var (
	// ErrBadMagic reports a file that is not in this package's format.
	ErrBadMagic = errors.New("durable: bad magic (not a snapshot/WAL file)")
	// ErrTruncated reports a file that ends before its declared content.
	ErrTruncated = errors.New("durable: truncated file")
	// ErrChecksum reports payload bytes that do not match their CRC.
	ErrChecksum = errors.New("durable: checksum mismatch")
	// ErrClosed reports an operation on a closed WAL.
	ErrClosed = errors.New("durable: WAL is closed")
)

// CorruptError wraps one of the sentinel corruption errors with the
// file path and byte offset where the damage was detected, so operators
// can locate the bad bytes instead of guessing from a bare decoder message.
type CorruptError struct {
	Path   string // file being read ("<stream>" for readers with no path)
	Offset int64  // byte offset of the damaged region
	Detail string // human context, e.g. "record header" or "snapshot meta segment"
	Err    error  // the sentinel (or underlying decode error)
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("durable: %s: corrupt %s at byte %d: %v",
		e.Path, e.Detail, e.Offset, e.Err)
}

func (e *CorruptError) Unwrap() error { return e.Err }

// VersionError reports a file written in a format version this
// build does not read: a newer (or unknown) one, or an older one whose
// reader has been retired.
type VersionError struct {
	Path string
	Got  uint16 // version found in the file
	Max  uint16 // newest version this build can read
}

func (e *VersionError) Error() string {
	if e.Got != 0 && e.Got < e.Max {
		return fmt.Sprintf("durable: %s: format version %d is no longer supported (this build reads version %d)",
			e.Path, e.Got, e.Max)
	}
	return fmt.Sprintf("durable: %s: format version %d not supported (max %d)",
		e.Path, e.Got, e.Max)
}

// castagnoli is the CRC-32C table used for all checksums in the package.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC-32C of b.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// AtomicWriteFile replaces path with data without ever exposing a
// partial file: the bytes land in a temp file in the same directory,
// are (optionally) fsynced, and only then renamed over path. The
// directory entry is fsynced after the rename so the replacement itself
// survives a power cut. A crash at any point leaves either the old file
// or the new one, never a torn mix.
func AtomicWriteFile(path string, data []byte, sync bool) error {
	return AtomicWriteTo(path, sync, func(f *os.File) error {
		_, err := f.Write(data)
		return err
	})
}

// AtomicWriteTo is AtomicWriteFile for producers too large to buffer:
// write streams the content directly to the temp file, which is then
// (optionally) fsynced and renamed over path, with the same
// crash-safety guarantee — the old file or the complete new one, never
// a torn mix. A multi-gigabyte snapshot costs no intermediate []byte.
func AtomicWriteTo(path string, sync bool, write func(f *os.File) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("durable: atomic write %s: %w", path, err)
	}
	tmpName := tmp.Name()
	// Any failure past this point must not leave the temp file behind.
	fail := func(step string, err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("durable: atomic write %s: %s: %w", path, step, err)
	}
	if err := write(tmp); err != nil {
		return fail("write", err)
	}
	if sync {
		if err := tmp.Sync(); err != nil {
			return fail("fsync", err)
		}
	}
	if err := tmp.Close(); err != nil {
		return fail("close", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("durable: atomic write %s: rename: %w", path, err)
	}
	if sync {
		if err := syncDir(dir); err != nil {
			return fmt.Errorf("durable: atomic write %s: sync dir: %w", path, err)
		}
	}
	return nil
}

// syncDir fsyncs a directory so renames and unlinks inside it are
// durable. Some filesystems reject fsync on directories; that is not a
// correctness problem on the platforms we target, so only real errors
// propagate.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, os.ErrInvalid) {
		return err
	}
	return nil
}
