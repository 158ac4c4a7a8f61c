package colstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sort"

	"expertfind/internal/durable"
)

// verifyChunk bounds the buffer used for CRC verification so validating
// a multi-gigabyte section costs one reusable megabyte of heap, not a
// resident copy of the file.
const verifyChunk = 1 << 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Section is an opened columnar section: a validated directory plus
// either a read-only mapping of the whole file (zero-copy typed views)
// or a handle to read segments onto the heap.
//
// A mapped Section owns its mapping; Close releases it, after which
// every view previously handed out is invalid. Callers that install
// views into long-lived structures must keep the Section alive for the
// lifetime of those structures. A heap Section reads through the
// io.ReaderAt it was opened with, so that source must stay open until
// the last accessor call (typically the duration of a snapshot load).
type Section struct {
	// Mapped reports whether typed accessors return zero-copy views
	// into an mmap'd file (true) or freshly allocated heap slices.
	Mapped bool

	name    string
	ra      io.ReaderAt
	dir     []Segment
	byName  map[string]int
	mapping []byte // whole-file mmap; nil in heap mode
	end     int64  // absolute file offset one past the section
}

func corrupt(name string, off int64, detail string, err error) error {
	return &durable.CorruptError{Path: name, Offset: off, Detail: detail, Err: err}
}

// parseDirectory reads and fully validates a section directory at
// offset off of a size-byte source. Every declared segment must land
// inside the file, be aligned, not overlap another segment, and agree
// with its kind's element width; the directory's own CRC must match,
// and every alignment-padding byte must be present and zero (the
// section is canonical — see the padding check below). Payload CRCs
// are NOT checked here — see verifySegments.
func parseDirectory(ra io.ReaderAt, name string, size, off int64) (dir []Segment, end int64, err error) {
	if off < 0 || off > size {
		return nil, 0, corrupt(name, off, "section offset", durable.ErrTruncated)
	}
	var hdr [headerSize]byte
	if size-off < headerSize {
		return nil, 0, corrupt(name, size, "section header", durable.ErrTruncated)
	}
	if _, err := ra.ReadAt(hdr[:], off); err != nil {
		return nil, 0, fmt.Errorf("colstore: %s: read section header: %w", name, err)
	}
	if [8]byte(hdr[0:8]) != SectionMagic {
		return nil, 0, corrupt(name, off, "section magic", durable.ErrBadMagic)
	}
	version := binary.LittleEndian.Uint16(hdr[8:10])
	if version == 0 || version > SectionVersion {
		return nil, 0, &durable.VersionError{Path: name, Got: version, Max: SectionVersion}
	}
	count := binary.LittleEndian.Uint32(hdr[12:16])
	if count == 0 || count > MaxSegments {
		return nil, 0, corrupt(name, off+12, "segment count", durable.ErrChecksum)
	}
	alignment := binary.LittleEndian.Uint32(hdr[16:20])
	if alignment == 0 || alignment&(alignment-1) != 0 || alignment > 1<<20 {
		return nil, 0, corrupt(name, off+16, "section alignment", durable.ErrChecksum)
	}

	dirLen := int64(headerSize) + int64(count)*entrySize + crcSize
	if size-off < dirLen {
		return nil, 0, corrupt(name, size, "segment directory", durable.ErrTruncated)
	}
	raw := make([]byte, dirLen)
	if _, err := ra.ReadAt(raw, off); err != nil {
		return nil, 0, fmt.Errorf("colstore: %s: read segment directory: %w", name, err)
	}
	crcAt := dirLen - crcSize
	want := binary.LittleEndian.Uint32(raw[crcAt:])
	if got := crc32.Checksum(raw[:crcAt], castagnoli); got != want {
		return nil, 0, corrupt(name, off, "segment directory", durable.ErrChecksum)
	}

	dir = make([]Segment, count)
	end = off + dirLen
	for i := range dir {
		e := raw[headerSize+i*entrySize:]
		nameLen := 0
		for nameLen < MaxNameLen && e[nameLen] != 0 {
			nameLen++
		}
		segName := string(e[:nameLen])
		entryOff := off + int64(headerSize) + int64(i)*entrySize
		if !validName(segName) {
			return nil, 0, corrupt(name, entryOff, "segment name", durable.ErrChecksum)
		}
		kind := Kind(binary.LittleEndian.Uint32(e[16:20]))
		es := kind.ElemSize()
		if es == 0 || binary.LittleEndian.Uint32(e[20:24]) != uint32(es) {
			return nil, 0, corrupt(name, entryOff+16,
				fmt.Sprintf("segment %q element kind", segName), durable.ErrChecksum)
		}
		cnt := binary.LittleEndian.Uint64(e[24:32])
		segOff := binary.LittleEndian.Uint64(e[32:40])
		segLen := binary.LittleEndian.Uint64(e[40:48])
		if cnt > math.MaxUint64/uint64(es) || segLen != cnt*uint64(es) {
			return nil, 0, corrupt(name, entryOff+24,
				fmt.Sprintf("segment %q length", segName), durable.ErrChecksum)
		}
		if segOff%uint64(alignment) != 0 || segOff < uint64(off)+uint64(dirLen-crcSize) {
			return nil, 0, corrupt(name, entryOff+32,
				fmt.Sprintf("segment %q offset", segName), durable.ErrChecksum)
		}
		if segOff > uint64(size) || segLen > uint64(size)-segOff {
			return nil, 0, corrupt(name, entryOff+32,
				fmt.Sprintf("segment %q extent", segName), durable.ErrTruncated)
		}
		dir[i] = Segment{
			Name:   segName,
			Kind:   kind,
			Count:  cnt,
			Offset: segOff,
			Length: segLen,
			CRC:    binary.LittleEndian.Uint32(e[48:52]),
		}
		if e := int64(segOff) + int64(segLen); e > end {
			end = e
		}
	}

	// No two segments may overlap, and names must be unique: either is a
	// forged or damaged directory, not a layout this package writes.
	byOff := make([]*Segment, count)
	seen := make(map[string]bool, count)
	for i := range dir {
		if seen[dir[i].Name] {
			return nil, 0, corrupt(name, off+headerSize,
				fmt.Sprintf("duplicate segment %q", dir[i].Name), durable.ErrChecksum)
		}
		seen[dir[i].Name] = true
		byOff[i] = &dir[i]
	}
	sort.Slice(byOff, func(i, j int) bool { return byOff[i].Offset < byOff[j].Offset })
	for i := 1; i < len(byOff); i++ {
		if byOff[i].Offset < byOff[i-1].Offset+byOff[i-1].Length {
			return nil, 0, corrupt(name, int64(byOff[i].Offset),
				fmt.Sprintf("segments %q and %q overlap", byOff[i-1].Name, byOff[i].Name),
				durable.ErrChecksum)
		}
	}

	// Canonical padding: the writer zero-fills every alignment gap —
	// between the directory and the first payload, between payloads,
	// and after the last payload up to the aligned section end. Demanding
	// those bytes be present and zero closes the coverage gap the CRCs
	// leave: a bit flip or truncation anywhere in the section span is
	// detected, not just one inside a payload.
	padEnd := align(end, int64(alignment))
	if padEnd > size {
		return nil, 0, corrupt(name, size, "section padding", durable.ErrTruncated)
	}
	pos := off + dirLen
	for _, sg := range byOff {
		if sg.Length == 0 {
			continue
		}
		if int64(sg.Offset) > pos {
			if err := checkZeroRange(ra, name, pos, int64(sg.Offset)); err != nil {
				return nil, 0, err
			}
		}
		if e := int64(sg.Offset) + int64(sg.Length); e > pos {
			pos = e
		}
	}
	if err := checkZeroRange(ra, name, pos, padEnd); err != nil {
		return nil, 0, err
	}
	return dir, end, nil
}

// checkZeroRange reads [lo, hi) in bounded chunks and rejects any
// non-zero byte — alignment padding has exactly one valid value.
func checkZeroRange(ra io.ReaderAt, name string, lo, hi int64) error {
	if lo >= hi {
		return nil
	}
	n := hi - lo
	if n > verifyChunk {
		n = verifyChunk
	}
	buf := make([]byte, n)
	for lo < hi {
		c := hi - lo
		if c > verifyChunk {
			c = verifyChunk
		}
		if _, err := ra.ReadAt(buf[:c], lo); err != nil {
			return corrupt(name, lo, "section padding", durable.ErrTruncated)
		}
		for i := int64(0); i < c; i++ {
			if buf[i] != 0 {
				return corrupt(name, lo+i, "section padding", durable.ErrChecksum)
			}
		}
		lo += c
	}
	return nil
}

// verifySegments streams every payload through CRC-32C in bounded
// chunks via ReadAt — deliberately not through any mapping, so
// verifying a larger-than-RAM file never faults it resident.
func verifySegments(ra io.ReaderAt, name string, dir []Segment) error {
	buf := make([]byte, verifyChunk)
	for _, sg := range dir {
		var crc uint32
		off, left := int64(sg.Offset), int64(sg.Length)
		for left > 0 {
			c := left
			if c > verifyChunk {
				c = verifyChunk
			}
			if _, err := ra.ReadAt(buf[:c], off); err != nil {
				return corrupt(name, off, fmt.Sprintf("segment %q payload", sg.Name), durable.ErrTruncated)
			}
			crc = crc32.Update(crc, castagnoli, buf[:c])
			off += c
			left -= c
		}
		if crc != sg.CRC {
			return corrupt(name, int64(sg.Offset),
				fmt.Sprintf("segment %q payload", sg.Name), durable.ErrChecksum)
		}
	}
	return nil
}

// Open opens, validates and (per mode) maps the section at offset off
// of file f. ModeAuto and ModeOn map the whole file read-only and hand
// out zero-copy views; ModeOff — and ModeAuto on platforms without mmap
// — reads segments onto the heap through f instead, in which case f
// must remain open until the caller is done with accessors.
//
// Every segment CRC is verified (with a bounded buffer, never through
// the mapping) before Open returns, so a torn or bit-flipped file is
// rejected before any view escapes.
func Open(f *os.File, off int64, mode Mode) (*Section, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("colstore: stat %s: %w", f.Name(), err)
	}
	s, err := OpenReaderAt(f, f.Name(), fi.Size(), off)
	if err != nil {
		return nil, err
	}
	if mode == ModeOff || (mode == ModeAuto && !mmapSupported) {
		return s, nil
	}
	m, err := mapFile(f, fi.Size())
	if err != nil {
		if mode == ModeAuto {
			return s, nil // fall back to heap reads
		}
		return nil, err
	}
	s.mapping = m
	s.Mapped = true
	return s, nil
}

// OpenReaderAt opens a heap-mode section from any random-access source
// (a bytes.Reader over streamed snapshot bytes, an open file, ...).
// Typed accessors allocate and copy; the source must stay readable
// until the last accessor call.
func OpenReaderAt(ra io.ReaderAt, name string, size, off int64) (*Section, error) {
	dir, end, err := parseDirectory(ra, name, size, off)
	if err != nil {
		return nil, err
	}
	if err := verifySegments(ra, name, dir); err != nil {
		return nil, err
	}
	byName := make(map[string]int, len(dir))
	for i := range dir {
		byName[dir[i].Name] = i
	}
	return &Section{
		name:   name,
		ra:     ra,
		dir:    dir,
		byName: byName,
		end:    end,
	}, nil
}

// Close releases the mapping, if any. Views handed out by a mapped
// section must not be touched afterwards.
func (s *Section) Close() error {
	m := s.mapping
	s.mapping = nil
	s.Mapped = false
	return unmapFile(m)
}

// Materialized returns a heap-mode alias of this section: same
// validated directory and source, but typed accessors allocate and read
// through the underlying file instead of returning views of the
// mapping. Use it for segments the caller immediately walks in full
// (row ids, CSR offsets, tombstones) — a zero-copy view of those would
// fault every page resident during load anyway, defeating the point of
// the mapping, and on top of that pins the Section's lifetime for data
// that is about to be decoded and discarded. The alias shares the
// original's file handle, so it is only usable while that stays open;
// closing the alias never releases the original's mapping.
func (s *Section) Materialized() *Section {
	h := *s
	h.mapping = nil
	h.Mapped = false
	return &h
}

// End returns the absolute file offset one past the last segment
// payload (before any trailing alignment padding).
func (s *Section) End() int64 { return s.end }

// lookup finds a segment by name and checks its kind.
func (s *Section) lookup(name string, kind Kind) (Segment, error) {
	i, ok := s.byName[name]
	if !ok {
		return Segment{}, fmt.Errorf("colstore: %s: no segment %q", s.name, name)
	}
	sg := s.dir[i]
	if sg.Kind != kind {
		return Segment{}, fmt.Errorf("colstore: %s: segment %q is %v, want %v",
			s.name, name, sg.Kind, kind)
	}
	return sg, nil
}

// view returns the mapped payload bytes of sg with cap == len, so any
// append by a consumer escapes to the heap instead of writing into the
// read-only mapping.
func (s *Section) view(sg Segment) []byte {
	lo, hi := sg.Offset, sg.Offset+sg.Length
	return s.mapping[lo:hi:hi]
}

// readInto fills dst (a typed allocation viewed as bytes) with the
// payload of sg.
func (s *Section) readInto(dst []byte, sg Segment) error {
	if len(dst) == 0 {
		return nil
	}
	if _, err := s.ra.ReadAt(dst, int64(sg.Offset)); err != nil {
		return fmt.Errorf("colstore: %s: read segment %q: %w", s.name, sg.Name, err)
	}
	return nil
}

// typed materialises or views a segment as []T. elemSize must equal
// sizeof(T). Mapped little-endian sections return a zero-copy view;
// heap mode allocates []T (guaranteeing alignment) and reads the bytes
// straight into it; big-endian hosts decode per element via dec.
func typed[T any](s *Section, name string, kind Kind, dec func([]byte) T) ([]T, error) {
	sg, err := s.lookup(name, kind)
	if err != nil {
		return nil, err
	}
	n := int(sg.Count)
	if uint64(n) != sg.Count {
		return nil, fmt.Errorf("colstore: %s: segment %q: count %d overflows int", s.name, name, sg.Count)
	}
	es := kind.ElemSize()
	if s.Mapped && hostLittleEndian {
		return viewAs[T](s.view(sg), n), nil
	}
	out := make([]T, n)
	if hostLittleEndian {
		return out, s.readInto(asBytes(out, es), sg)
	}
	// Portable big-endian fallback: chunked byte reads, per-element decode.
	buf := make([]byte, verifyChunk-(verifyChunk%es))
	off, done := int64(sg.Offset), 0
	for done < n {
		c := (n - done) * es
		if c > len(buf) {
			c = len(buf)
		}
		if _, err := s.ra.ReadAt(buf[:c], off); err != nil {
			return nil, fmt.Errorf("colstore: %s: read segment %q: %w", s.name, name, err)
		}
		for i := 0; i < c; i += es {
			out[done] = dec(buf[i : i+es])
			done++
		}
		off += int64(c)
	}
	return out, nil
}

// Float32s returns the named f32 segment.
func (s *Section) Float32s(name string) ([]float32, error) {
	return typed[float32](s, name, KindF32, func(b []byte) float32 {
		return math.Float32frombits(binary.LittleEndian.Uint32(b))
	})
}

// Int32s returns the named i32 segment as int32s, or as a type over
// them such as node ids.
func Int32s[T ~int32](s *Section, name string) ([]T, error) {
	return typed[T](s, name, KindI32, func(b []byte) T {
		return T(binary.LittleEndian.Uint32(b))
	})
}

// Bytes returns the named u8 segment.
func (s *Section) Bytes(name string) ([]byte, error) {
	return typed[byte](s, name, KindU8, func(b []byte) byte { return b[0] })
}

// Uint64s returns the named u64 segment.
func (s *Section) Uint64s(name string) ([]uint64, error) {
	return typed[uint64](s, name, KindU64, binary.LittleEndian.Uint64)
}
