package colstore

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"expertfind/internal/durable"
)

// SegmentData is one column queued for writing: a name, an element
// kind, and the raw little-endian payload bytes. Build values with the
// typed constructors (F32Seg, I32Seg, ...) rather than by hand — they
// guarantee Count, Kind and the byte image agree.
type SegmentData struct {
	Name  string
	Kind  Kind
	Count uint64
	raw   []byte // little-endian payload image
}

// F32Seg queues a float32 column. On little-endian hosts the payload is
// a zero-copy view of v (v must not be mutated until WriteSection
// returns); elsewhere it is encoded portably.
func F32Seg(name string, v []float32) SegmentData {
	var raw []byte
	if hostLittleEndian {
		raw = asBytes(v, 4)
	} else {
		raw = make([]byte, 4*len(v))
		for i, x := range v {
			binary.LittleEndian.PutUint32(raw[4*i:], math.Float32bits(x))
		}
	}
	return SegmentData{Name: name, Kind: KindF32, Count: uint64(len(v)), raw: raw}
}

// I32Seg queues an int32 column.
func I32Seg(name string, v []int32) SegmentData {
	var raw []byte
	if hostLittleEndian {
		raw = asBytes(v, 4)
	} else {
		raw = make([]byte, 4*len(v))
		for i, x := range v {
			binary.LittleEndian.PutUint32(raw[4*i:], uint32(x))
		}
	}
	return SegmentData{Name: name, Kind: KindI32, Count: uint64(len(v)), raw: raw}
}

// U64Seg queues a uint64 column.
func U64Seg(name string, v []uint64) SegmentData {
	var raw []byte
	if hostLittleEndian {
		raw = asBytes(v, 8)
	} else {
		raw = make([]byte, 8*len(v))
		for i, x := range v {
			binary.LittleEndian.PutUint64(raw[8*i:], x)
		}
	}
	return SegmentData{Name: name, Kind: KindU64, Count: uint64(len(v)), raw: raw}
}

// U8Seg queues a raw byte column.
func U8Seg(name string, v []byte) SegmentData {
	return SegmentData{Name: name, Kind: KindU8, Count: uint64(len(v)), raw: v}
}

// layout assigns absolute, page-aligned payload offsets and returns the
// section end offset plus the finished directory.
func layout(base int64, segs []SegmentData) (end int64, dir []Segment, err error) {
	if base < 0 {
		return 0, nil, fmt.Errorf("colstore: negative section base %d", base)
	}
	if len(segs) == 0 || len(segs) > MaxSegments {
		return 0, nil, fmt.Errorf("colstore: segment count %d out of range [1,%d]", len(segs), MaxSegments)
	}
	seen := make(map[string]bool, len(segs))
	dir = make([]Segment, len(segs))
	pos := align(base+int64(headerSize)+int64(len(segs))*entrySize+crcSize, PageAlign)
	for i, sd := range segs {
		if !validName(sd.Name) {
			return 0, nil, fmt.Errorf("colstore: invalid segment name %q", sd.Name)
		}
		if seen[sd.Name] {
			return 0, nil, fmt.Errorf("colstore: duplicate segment name %q", sd.Name)
		}
		seen[sd.Name] = true
		es := sd.Kind.ElemSize()
		if es == 0 {
			return 0, nil, fmt.Errorf("colstore: segment %q: unknown kind %v", sd.Name, sd.Kind)
		}
		if uint64(len(sd.raw)) != sd.Count*uint64(es) {
			return 0, nil, fmt.Errorf("colstore: segment %q: %d bytes for %d %v elements",
				sd.Name, len(sd.raw), sd.Count, sd.Kind)
		}
		dir[i] = Segment{
			Name:   sd.Name,
			Kind:   sd.Kind,
			Count:  sd.Count,
			Offset: uint64(pos),
			Length: uint64(len(sd.raw)),
			CRC:    durable.Checksum(sd.raw),
		}
		pos = align(pos+int64(len(sd.raw)), PageAlign)
	}
	// The section ends where the next aligned thing would begin; the
	// final payload's padding is included so the file length is a
	// whole number of pages past the last segment.
	return pos, dir, nil
}

// WriteSection appends a columnar section to w, which must currently be
// positioned at absolute file offset base (the number of bytes already
// written before the section). It returns the absolute end offset of
// the section and the directory that was written.
func WriteSection(w io.Writer, base int64, segs []SegmentData) (end int64, dir []Segment, err error) {
	end, dir, err = layout(base, segs)
	if err != nil {
		return 0, nil, err
	}

	// Header + directory + directory CRC, assembled in one buffer so the
	// CRC covers exactly the bytes on disk.
	head := make([]byte, headerSize+len(dir)*entrySize+crcSize)
	copy(head[0:8], SectionMagic[:])
	binary.LittleEndian.PutUint16(head[8:10], SectionVersion)
	binary.LittleEndian.PutUint32(head[12:16], uint32(len(dir)))
	binary.LittleEndian.PutUint32(head[16:20], PageAlign)
	for i, sg := range dir {
		e := head[headerSize+i*entrySize:]
		copy(e[0:16], sg.Name)
		binary.LittleEndian.PutUint32(e[16:20], uint32(sg.Kind))
		binary.LittleEndian.PutUint32(e[20:24], uint32(sg.Kind.ElemSize()))
		binary.LittleEndian.PutUint64(e[24:32], sg.Count)
		binary.LittleEndian.PutUint64(e[32:40], sg.Offset)
		binary.LittleEndian.PutUint64(e[40:48], sg.Length)
		binary.LittleEndian.PutUint32(e[48:52], sg.CRC)
	}
	crcAt := len(head) - crcSize
	binary.LittleEndian.PutUint32(head[crcAt:], durable.Checksum(head[:crcAt]))
	if _, err := w.Write(head); err != nil {
		return 0, nil, fmt.Errorf("colstore: write directory: %w", err)
	}

	pos := base + int64(len(head))
	for i, sd := range segs {
		if err := writePad(w, int64(dir[i].Offset)-pos); err != nil {
			return 0, nil, err
		}
		if _, err := w.Write(sd.raw); err != nil {
			return 0, nil, fmt.Errorf("colstore: write segment %q: %w", sd.Name, err)
		}
		pos = int64(dir[i].Offset) + int64(dir[i].Length)
	}
	if err := writePad(w, end-pos); err != nil {
		return 0, nil, err
	}
	return end, dir, nil
}

var zeroPage [PageAlign]byte

// writePad writes n zero bytes.
func writePad(w io.Writer, n int64) error {
	for n > 0 {
		c := n
		if c > PageAlign {
			c = PageAlign
		}
		if _, err := w.Write(zeroPage[:c]); err != nil {
			return fmt.Errorf("colstore: write padding: %w", err)
		}
		n -= c
	}
	return nil
}
