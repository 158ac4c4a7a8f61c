package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
)

// WALIterator walks records in sequence order across sealed segments and
// the active one, starting at the sequence given to ReadFrom. It reads a
// stable prefix of the log: the records it yields are exactly those
// appended before ReadFrom was called, so concurrent appends never tear
// an iteration. An iterator is not itself safe for concurrent use.
type WALIterator struct {
	w       *WAL
	segs    []segmentInfo
	seg     int // index into segs of the segment being read
	f       *os.File
	rr      *RecordReader // decodes the segment being read
	from    uint64        // first sequence the caller asked for
	scanSeq uint64        // sequence the next scanned record must carry
	upTo    uint64        // last sequence this iterator will yield
	err     error         // sticky terminal state (io.EOF when exhausted)
}

// ReadFrom returns an iterator over records with sequence >= from, up to
// the log's last sequence at call time. A from past the last sequence is
// valid and yields an immediately-exhausted iterator — the steady state
// of a caught-up replication follower polling for new records. A from
// below the oldest record on disk fails with ErrCompacted: those records
// were truncated into a snapshot and the caller must bootstrap from the
// snapshot instead. from must be >= 1 (sequence 0 never exists).
func (w *WAL) ReadFrom(from uint64) (*WALIterator, error) {
	if from == 0 {
		return nil, fmt.Errorf("durable: ReadFrom(0): sequences start at 1")
	}
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil, ErrClosed
	}
	// Appends write straight to the file, so every record up to here is
	// visible to the re-read below whatever the fsync policy.
	upTo := w.nextSeq - 1
	w.mu.Unlock()

	it := &WALIterator{w: w, from: from, upTo: upTo}
	if from > upTo {
		it.err = io.EOF
		return it, nil
	}
	segs, err := listSegments(w.dir)
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 || from < segs[0].firstSeq {
		return nil, ErrCompacted
	}
	// The segment containing from is the last one starting at or before it.
	idx := 0
	for i, s := range segs {
		if s.firstSeq <= from {
			idx = i
		}
	}
	it.segs, it.seg = segs, idx
	it.scanSeq = segs[idx].firstSeq
	if err := it.openSegment(); err != nil {
		return nil, err
	}
	return it, nil
}

// Next returns the next record, or io.EOF once every record up to the
// log's last sequence at ReadFrom time has been yielded. The payload
// slice is reused by the following Next call; copy it to retain. A
// segment that vanished under the iterator (snapshot truncation racing a
// slow reader) surfaces as ErrCompacted.
func (it *WALIterator) Next() (seq uint64, payload []byte, err error) {
	for {
		if it.err != nil {
			return 0, nil, it.err
		}
		seq, payload, err = it.scanOne()
		if err == errSegmentDone {
			if aerr := it.advanceSegment(); aerr != nil {
				it.fail(aerr)
				return 0, nil, aerr
			}
			continue
		}
		if err != nil {
			it.fail(err)
			return 0, nil, err
		}
		if seq == it.upTo {
			// Deliver this final record; later calls report exhaustion.
			it.fail(io.EOF)
		}
		if seq < it.from {
			continue // head of the first segment, before the requested start
		}
		return seq, payload, nil
	}
}

// Close releases the iterator's file handle. Safe to call at any point
// and more than once; a closed iterator's Next reports ErrClosed unless
// it had already terminated.
func (it *WALIterator) Close() error {
	var err error
	if it.f != nil {
		err = it.f.Close()
		it.f = nil
	}
	if it.err == nil {
		it.err = ErrClosed
	}
	return err
}

// fail records a terminal state and drops the file handle.
func (it *WALIterator) fail(err error) {
	it.err = err
	if it.f != nil {
		it.f.Close()
		it.f = nil
	}
}

// errSegmentDone is an internal signal: the current segment has no more
// complete records and the next one should be opened.
var errSegmentDone = errors.New("durable: segment exhausted")

// openSegment opens it.segs[it.seg] for scanning. The caller has set
// scanSeq to the segment's first sequence.
func (it *WALIterator) openSegment() error {
	seg := it.segs[it.seg]
	f, err := os.Open(seg.path)
	if os.IsNotExist(err) {
		return ErrCompacted // truncated away while we were getting to it
	}
	if err != nil {
		return fmt.Errorf("durable: open WAL segment: %w", err)
	}
	it.f = f
	it.rr = newRecordReader(f, seg.path)
	return nil
}

// advanceSegment moves to the segment holding scanSeq. When the listed
// segments are exhausted it re-lists the directory: the log may have
// rotated since ReadFrom and the remaining promised records then live in
// a segment created afterwards.
func (it *WALIterator) advanceSegment() error {
	if it.f != nil {
		it.f.Close()
		it.f = nil
	}
	it.seg++
	if it.seg >= len(it.segs) {
		segs, err := listSegments(it.w.dir)
		if err != nil {
			return err
		}
		it.segs, it.seg = segs, -1
		for i, s := range segs {
			if s.firstSeq == it.scanSeq {
				it.seg = i
				break
			}
		}
		if it.seg < 0 {
			if len(segs) > 0 && segs[0].firstSeq > it.scanSeq {
				return ErrCompacted
			}
			return &CorruptError{Path: it.w.dir, Offset: 0, Detail: "WAL segment chain",
				Err: fmt.Errorf("no segment starting at seq %d: %w", it.scanSeq, ErrTruncated)}
		}
		return it.openSegment()
	}
	if it.segs[it.seg].firstSeq != it.scanSeq {
		return &CorruptError{Path: it.segs[it.seg].path, Offset: 0, Detail: "segment sequence",
			Err: fmt.Errorf("segment starts at seq %d, want %d: %w",
				it.segs[it.seg].firstSeq, it.scanSeq, ErrTruncated)}
	}
	return it.openSegment()
}

// scanOne reads and validates one record from the current segment,
// returning errSegmentDone at its end. A short read is a clean segment
// end from this iterator's point of view: every record it promised
// (seq <= upTo) was completely written before ReadFrom returned, so a
// partial record can only be the in-flight tail beyond the promise.
func (it *WALIterator) scanOne() (uint64, []byte, error) {
	start := it.rr.off
	seq, payload, err := it.rr.Next()
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return 0, nil, errSegmentDone
	}
	if err != nil {
		return 0, nil, err
	}
	if seq != it.scanSeq {
		return 0, nil, &CorruptError{Path: it.segs[it.seg].path, Offset: start,
			Detail: "record sequence",
			Err:    fmt.Errorf("found seq %d, want %d: %w", seq, it.scanSeq, ErrChecksum)}
	}
	it.scanSeq++
	return seq, payload, nil
}

// MarshalRecord encodes one record in the WAL's on-disk format — the
// same bytes Append writes. The replication stream ships records in this
// format so a follower can CRC-check and apply them without a second
// framing layer.
func MarshalRecord(seq uint64, payload []byte) []byte {
	return encodeRecord(seq, payload)
}

// RecordReader decodes a stream of records in the WAL wire/on-disk
// format (see MarshalRecord), validating each checksum. It is the only
// place a record header is interpreted: the open-time segment scan, the
// WALIterator and the replication follower all read through it.
type RecordReader struct {
	r    io.Reader
	name string // labels the source in errors: a segment path, or "<stream>"
	off  int64  // bytes of r consumed by the complete records returned so far
	buf  []byte // payload buffer, reused across Next calls
}

// NewRecordReader wraps r, which must carry zero or more complete
// records back to back.
func NewRecordReader(r io.Reader) *RecordReader { return newRecordReader(r, "<stream>") }

func newRecordReader(r io.Reader, name string) *RecordReader {
	return &RecordReader{r: r, name: name}
}

// Next returns the next record. io.EOF reports a clean end between
// records; io.ErrUnexpectedEOF a stream cut mid-record (a torn tail —
// on the wire, resume from the last applied sequence); a *CorruptError,
// carrying the source's name and the record's offset, a checksum or
// framing failure. The payload is reused on the following call; copy to
// retain.
func (rr *RecordReader) Next() (seq uint64, payload []byte, err error) {
	var hdr [recordHeaderSize]byte
	if _, err := io.ReadFull(rr.r, hdr[:]); err != nil {
		return 0, nil, rr.readErr(err, io.EOF)
	}
	plen := binary.LittleEndian.Uint32(hdr[0:4])
	crc := binary.LittleEndian.Uint32(hdr[4:8])
	seq = binary.LittleEndian.Uint64(hdr[8:16])
	if int64(plen) > MaxRecordBytes {
		// An over-large length at the tail is indistinguishable from a torn
		// header; anywhere else it is corruption either way.
		return 0, nil, &CorruptError{Path: rr.name, Offset: rr.off,
			Detail: "record length", Err: ErrChecksum}
	}
	if cap(rr.buf) < int(plen) {
		rr.buf = make([]byte, plen)
	}
	payload = rr.buf[:plen]
	if _, err := io.ReadFull(rr.r, payload); err != nil {
		return 0, nil, rr.readErr(err, io.ErrUnexpectedEOF)
	}
	if got := recordChecksum(seq, payload); got != crc {
		return 0, nil, &CorruptError{Path: rr.name, Offset: rr.off,
			Detail: "record checksum", Err: ErrChecksum}
	}
	rr.off += recordHeaderSize + int64(plen)
	return seq, payload, nil
}

// readErr classifies a failed read: the source ending before any byte
// of the wanted field is atEOF (clean between records, torn inside
// one), ending part-way through it is always torn, and anything else is
// the source's own failure.
func (rr *RecordReader) readErr(err, atEOF error) error {
	switch {
	case err == io.EOF:
		return atEOF
	case errors.Is(err, io.ErrUnexpectedEOF):
		return io.ErrUnexpectedEOF
	}
	return fmt.Errorf("durable: read %s: %w", rr.name, err)
}
