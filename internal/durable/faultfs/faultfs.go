// Package faultfs holds the fault-injection doubles the durability tests
// of durable, colstore and core share; only _test.go files import it.
// Each double wraps an io.Writer or io.Reader and manufactures one
// concrete failure mode a production filesystem can produce: a write
// error mid-stream (disk full, I/O error), a torn write (power cut after
// a partial flush), a truncated file, and silent bit rot. The durability
// layer must turn every one of these into either a full recovery or a
// typed, loud error.
package faultfs

import (
	"errors"
	"io"
	"os"
)

// ErrInjected is the error fault writers return when they trip.
var ErrInjected = errors.New("faultfs: injected fault")

// FailingWriter passes writes through until Limit bytes have been
// written, then fails every subsequent write with ErrInjected — a disk
// that fills or errors mid-stream.
type FailingWriter struct {
	W       io.Writer
	Limit   int64 // bytes accepted before failing
	written int64
}

func (f *FailingWriter) Write(p []byte) (int, error) {
	if f.written >= f.Limit {
		return 0, ErrInjected
	}
	if rem := f.Limit - f.written; int64(len(p)) > rem {
		n, _ := f.W.Write(p[:rem])
		f.written += int64(n)
		return n, ErrInjected
	}
	n, err := f.W.Write(p)
	f.written += int64(n)
	return n, err
}

// TornWriter simulates a crash after a partial flush: the first Limit
// bytes reach the underlying writer, everything after silently
// vanishes, yet every Write reports full success — exactly what a
// process sees when the machine dies with data still in a volatile
// cache. The bytes that "made it to disk" are whatever W received.
type TornWriter struct {
	W       io.Writer
	Limit   int64
	written int64
}

func (t *TornWriter) Write(p []byte) (int, error) {
	if rem := t.Limit - t.written; rem > 0 {
		take := int64(len(p))
		if take > rem {
			take = rem
		}
		if _, err := t.W.Write(p[:take]); err != nil {
			return 0, err
		}
		t.written += take
	}
	return len(p), nil // caller believes everything was written
}

// FlipReader streams R unchanged except for one byte: the byte at
// Offset is XORed with Mask — silent single-byte rot. A zero Mask flips
// nothing; use 0xFF to invert the byte.
type FlipReader struct {
	R      io.Reader
	Offset int64
	Mask   byte
	pos    int64
}

func (f *FlipReader) Read(p []byte) (int, error) {
	n, err := f.R.Read(p)
	if n > 0 && f.Offset >= f.pos && f.Offset < f.pos+int64(n) {
		p[f.Offset-f.pos] ^= f.Mask
	}
	f.pos += int64(n)
	return n, err
}

// TruncateReader delivers only the first Limit bytes of R and then
// reports EOF — a file that lost its tail.
type TruncateReader struct {
	R     io.Reader
	Limit int64
	pos   int64
}

func (t *TruncateReader) Read(p []byte) (int, error) {
	if t.pos >= t.Limit {
		return 0, io.EOF
	}
	if rem := t.Limit - t.pos; int64(len(p)) > rem {
		p = p[:rem]
	}
	n, err := t.R.Read(p)
	t.pos += int64(n)
	return n, err
}

// ErrorAfterNWriter fails the (N+1)th call to Write with ErrInjected,
// regardless of byte counts — for exercising failures at exact operation
// boundaries such as "directory written, payload not".
type ErrorAfterNWriter struct {
	W     io.Writer
	N     int
	calls int
}

func (e *ErrorAfterNWriter) Write(p []byte) (int, error) {
	if e.calls >= e.N {
		return 0, ErrInjected
	}
	e.calls++
	return e.W.Write(p)
}

// CorruptFileByte XOR-flips one byte of a file in place — the on-disk
// analogue of FlipReader for tests that damage real snapshot or WAL
// files between runs.
func CorruptFileByte(path string, offset int64, mask byte) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], offset); err != nil {
		return err
	}
	b[0] ^= mask
	_, err = f.WriteAt(b[:], offset)
	return err
}
