// Package colstore implements the mmap-able columnar section that makes
// snapshots servable without heap-decoding them: a directory of
// fixed-width, page-aligned, individually CRC-32C-checked segments
// (float32 embedding rows, int32 CSR adjacency, uint64 offsets, ...)
// appended after the gob payload of an EFSNAP snapshot. The u32 and i8
// kinds stay in the format, so files that carry them still open, but no
// writer emits them.
//
// The layout is built for two readers with identical semantics:
//
//   - the mmap reader maps the whole snapshot file read-only and hands
//     out zero-copy typed views into the mapping, so a 1M-paper
//     embedding matrix costs address space, not RSS — the OS page cache
//     faults in exactly the rows queries touch;
//   - the heap reader materialises each segment into a fresh allocation
//     with the same bytes, for platforms without mmap, for -mmap=off,
//     and for streams that never touch a filesystem.
//
// Both paths verify every segment's CRC before a single element is
// interpreted, via bounded-buffer file reads — never through the
// mapping, so validation does not fault the whole file resident.
//
// On-disk layout of a section starting at byte `off` of the file:
//
//	off+0    8   magic "EFCOLSEG"
//	off+8    2   section format version (uint16 LE)
//	off+10   2   reserved (zero)
//	off+12   4   segment count (uint32 LE)
//	off+16   4   alignment in bytes (uint32 LE; PageAlign when written)
//	off+20       segment directory: count fixed 64-byte entries
//	...      4   CRC-32C over header+directory (uint32 LE)
//	<pad to alignment>
//	         segment 0 payload, zero-padded to alignment
//	         segment 1 payload, zero-padded to alignment
//	         ...
//
// One directory entry (64 bytes, all LE):
//
//	0   16  name, NUL-padded ASCII
//	16  4   kind (Kind)
//	20  4   element size in bytes (must match kind)
//	24  8   element count (uint64)
//	32  8   absolute file offset of the payload (uint64, aligned)
//	40  8   payload length in bytes (uint64, = count * elemSize)
//	48  4   CRC-32C of the payload bytes
//	52  12  reserved (zero)
//
// All multi-byte values are little-endian on disk; on a little-endian
// host (every platform this project targets) typed views reinterpret
// the bytes in place, and a big-endian host falls back to a portable
// per-element decode into heap memory.
//
// Every failure mode is a typed error from internal/durable: a foreign
// or damaged header is a *durable.CorruptError (wrapping ErrBadMagic,
// ErrTruncated or ErrChecksum with the byte offset of the damage), and
// a future section version is a *durable.VersionError — the same
// taxonomy the container and WAL use, so callers discriminate damage
// classes uniformly.
package colstore

import (
	"errors"
	"fmt"
	"strings"
)

// SectionMagic identifies a columnar section.
var SectionMagic = [8]byte{'E', 'F', 'C', 'O', 'L', 'S', 'E', 'G'}

// ErrNoMmap reports that mapping is unavailable: either this platform
// build has no mmap support, or the caller asked for a mapping from a
// source that is not a file. ModeAuto falls back to heap
// materialisation; ModeOn surfaces this error.
var ErrNoMmap = errors.New("colstore: mmap not available")

// SectionVersion is the newest section format this build writes and
// understands.
const SectionVersion = 1

// PageAlign is the alignment of every segment payload: one common page
// size, so mapped views are page-aligned (and therefore aligned for any
// element type) and a segment never shares a page with the directory.
const PageAlign = 4096

const (
	headerSize = 20 // magic + version + reserved + count + align
	entrySize  = 64
	crcSize    = 4
	// MaxSegments bounds the directory so a corrupt count cannot drive
	// an absurd allocation before the CRC is checked.
	MaxSegments = 1024
	// MaxNameLen is the longest segment name the directory stores.
	MaxNameLen = 16
)

// Kind is the element type of a segment.
type Kind uint32

// The element kinds. Values are part of the on-disk format.
const (
	KindF32 Kind = 1 // float32
	KindI32 Kind = 2 // int32
	KindU32 Kind = 3 // uint32
	KindU64 Kind = 4 // uint64
	KindI8  Kind = 5 // int8
	KindU8  Kind = 6 // uint8 / raw bytes
)

// ElemSize returns the on-disk element width of k, or 0 for an unknown
// kind.
func (k Kind) ElemSize() int {
	switch k {
	case KindF32, KindI32, KindU32:
		return 4
	case KindU64:
		return 8
	case KindI8, KindU8:
		return 1
	}
	return 0
}

// String names the kind for error messages.
func (k Kind) String() string {
	switch k {
	case KindF32:
		return "f32"
	case KindI32:
		return "i32"
	case KindU32:
		return "u32"
	case KindU64:
		return "u64"
	case KindI8:
		return "i8"
	case KindU8:
		return "u8"
	}
	return fmt.Sprintf("Kind(%d)", uint32(k))
}

// Segment describes one column in a section's directory.
type Segment struct {
	Name   string
	Kind   Kind
	Count  uint64 // elements
	Offset uint64 // absolute file offset of the payload
	Length uint64 // payload bytes (= Count * ElemSize)
	CRC    uint32 // CRC-32C of the payload bytes
}

// Mode selects how a section's segments are materialised.
type Mode int

const (
	// ModeAuto maps the file when the platform supports it and falls
	// back to heap materialisation when it does not.
	ModeAuto Mode = iota
	// ModeOn requires the mapping: opening fails where mmap is
	// unavailable instead of silently burning heap.
	ModeOn
	// ModeOff always materialises segments on the heap.
	ModeOff
)

// String returns the flag spelling of the mode.
func (m Mode) String() string {
	switch m {
	case ModeAuto:
		return "auto"
	case ModeOn:
		return "on"
	case ModeOff:
		return "off"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ParseMode parses the -mmap flag grammar: auto, on, off.
func ParseMode(s string) (Mode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "auto", "":
		return ModeAuto, nil
	case "on", "true", "1":
		return ModeOn, nil
	case "off", "false", "0":
		return ModeOff, nil
	}
	return 0, fmt.Errorf("colstore: unknown mmap mode %q (want auto, on, or off)", s)
}

// align rounds n up to the next multiple of a (a must be a power of two).
func align(n int64, a int64) int64 { return (n + a - 1) &^ (a - 1) }

// AlignUp rounds n up to the next PageAlign boundary — the end of a
// written section file for a section whose payloads end at n (the
// writer zero-pads the final segment to a page boundary).
func AlignUp(n int64) int64 { return align(n, PageAlign) }

// validName reports whether a segment name fits the directory: 1-16
// printable ASCII bytes, no NUL.
func validName(s string) bool {
	if len(s) == 0 || len(s) > MaxNameLen {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < 0x21 || s[i] > 0x7e {
			return false
		}
	}
	return true
}
