package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Container format — the on-disk envelope for engine snapshots.
//
//	offset  size  field
//	0       6     magic "EFSNAP"
//	6       2     format version (uint16, little-endian)
//	8       8     payload length (uint64, little-endian)
//	16      4     CRC-32C of the payload (uint32, little-endian)
//	20      n     payload
//
// The header is checked before a single payload byte is interpreted, so
// a truncated, bit-flipped or foreign file is rejected with a typed
// error instead of a cryptic decode failure deep inside gob.

var containerMagic = [6]byte{'E', 'F', 'S', 'N', 'A', 'P'}

const (
	containerHeaderSize = 20
	// ContainerHeaderSize is the fixed byte length of the container
	// header — the offset where the payload begins. Callers that append
	// out-of-band data after the payload (the columnar snapshot
	// section) use it to compute absolute file offsets.
	ContainerHeaderSize = containerHeaderSize
	// MaxPayloadBytes bounds a declared payload length so a corrupt
	// header cannot drive an allocation of hundreds of gigabytes.
	MaxPayloadBytes = int64(1) << 32
)

// WriteContainer writes payload to w wrapped in the versioned,
// checksummed container envelope.
func WriteContainer(w io.Writer, version uint16, payload []byte) error {
	var hdr [containerHeaderSize]byte
	copy(hdr[:6], containerMagic[:])
	binary.LittleEndian.PutUint16(hdr[6:8], version)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[16:20], Checksum(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("durable: write container header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("durable: write container payload: %w", err)
	}
	return nil
}

// ReadContainerPrefix reads and verifies a container at the head of r.
// name labels the source in errors (a path, or "<stream>"). maxVersion is
// the newest format version the caller understands; newer files yield a
// *VersionError so an old binary never misreads a future layout. Bytes
// after the payload are left unread, and end is the offset where they
// begin: in a snapshot a columnar section follows the container in the
// same file, and the snapshot reader decides what may come after it.
func ReadContainerPrefix(r io.Reader, name string, maxVersion uint16) (version uint16, payload []byte, end int64, err error) {
	var hdr [containerHeaderSize]byte
	n, err := io.ReadFull(r, hdr[:])
	if err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, nil, 0, &CorruptError{Path: name, Offset: int64(n),
				Detail: "container header", Err: ErrTruncated}
		}
		return 0, nil, 0, fmt.Errorf("durable: %s: read header: %w", name, err)
	}
	if [6]byte(hdr[:6]) != containerMagic {
		return 0, nil, 0, &CorruptError{Path: name, Offset: 0,
			Detail: "container magic", Err: ErrBadMagic}
	}
	version = binary.LittleEndian.Uint16(hdr[6:8])
	if version == 0 || version > maxVersion {
		return 0, nil, 0, &VersionError{Path: name, Got: version, Max: maxVersion}
	}
	plen := binary.LittleEndian.Uint64(hdr[8:16])
	if int64(plen) < 0 || int64(plen) > MaxPayloadBytes {
		return 0, nil, 0, &CorruptError{Path: name, Offset: 8,
			Detail: "container payload length", Err: ErrChecksum}
	}
	want := binary.LittleEndian.Uint32(hdr[16:20])
	// The declared length is untrusted until the checksum holds, so it is
	// not handed to make() on its word: the payload is read through a limit
	// into a growing buffer, and a header that lies costs what the stream
	// actually holds, never the 4 GiB it may claim. The buffer is sized up
	// front only when a seekable reader (a file) shows it holds that many
	// bytes: growing by doubling through a 10 MB snapshot payload costs
	// serve_rw 6 % of its peak RSS.
	var buf bytes.Buffer
	if left, ok := remaining(r); ok && left >= int64(plen) {
		// MinRead more, or ReadFrom doubles a full buffer to find EOF.
		buf.Grow(int(plen) + bytes.MinRead)
	}
	read, err := buf.ReadFrom(io.LimitReader(r, int64(plen)))
	if err != nil || uint64(read) < plen {
		return 0, nil, 0, &CorruptError{Path: name, Offset: containerHeaderSize + read,
			Detail: "container payload", Err: ErrTruncated}
	}
	payload = buf.Bytes()
	if got := Checksum(payload); got != want {
		return 0, nil, 0, &CorruptError{Path: name, Offset: containerHeaderSize,
			Detail: "container payload", Err: ErrChecksum}
	}
	return version, payload, containerHeaderSize + int64(plen), nil
}

// remaining reports how many unread bytes r holds, when r is seekable.
func remaining(r io.Reader) (int64, bool) {
	s, ok := r.(io.Seeker)
	if !ok {
		return 0, false
	}
	cur, err := s.Seek(0, io.SeekCurrent)
	if err != nil {
		return 0, false
	}
	end, err := s.Seek(0, io.SeekEnd)
	if err != nil {
		return 0, false
	}
	if _, err := s.Seek(cur, io.SeekStart); err != nil {
		return 0, false
	}
	return end - cur, true
}
