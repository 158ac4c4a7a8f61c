package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Write-ahead log. Records are appended to segment files named
// wal-<firstSeq, 16 hex digits>.log; a segment seals when it grows past
// SegmentBytes and a new one opens. Each record is self-checking:
//
//	offset  size  field
//	0       4     payload length (uint32, little-endian)
//	4       4     CRC-32C over seq||payload (uint32, little-endian)
//	8       8     sequence number (uint64, little-endian)
//	16      n     payload
//
// Sequence numbers start at 1 and increase by exactly 1 per record
// across segments, so replay can both detect gaps and resume from the
// sequence a snapshot already covers.
//
// Corruption policy: a record that ends early (short header or short
// payload) in the FINAL segment is a torn write — the expected residue
// of a crash mid-append. It is truncated away at open and reported in
// ReplayStats. Everything else — a checksum mismatch anywhere, a torn
// record that is not last, a gap in sequence numbers — is real damage
// and surfaces as a *CorruptError; the caller must fail loudly rather
// than serve a state with silent holes in it.

// recordHeaderSize is the fixed prefix of every WAL record.
const recordHeaderSize = 16

// MaxRecordBytes bounds one record's payload; a longer declared length
// is treated as a corrupt header.
const MaxRecordBytes = 64 << 20

// SyncPolicy selects whether an append is fsynced to stable storage
// before it returns, trading acknowledgement latency for durability.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: an acknowledged record is
	// durable before Append returns. The default.
	SyncAlways SyncPolicy = iota
	// SyncNever leaves flushing to the OS: a process crash (kill -9)
	// loses nothing, the bytes are already in the page cache, but an
	// acknowledged record may be lost if the machine dies.
	SyncNever
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncNever:
		return "never"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// ParseSyncPolicy maps the -fsync flag values onto a SyncPolicy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("durable: unknown fsync policy %q (want always or never)", s)
}

// WALOptions configures OpenWAL. The zero value is usable: 4 MiB
// segments, SyncAlways.
type WALOptions struct {
	// SegmentBytes seals a segment once it grows past this (default 4 MiB).
	SegmentBytes int64
	// Sync selects the fsync policy.
	Sync SyncPolicy
	// InitialSeq is the sequence the first append receives when the log
	// is brand new (no segments on disk). Zero means 1. A replication
	// follower bootstrapping from a snapshot covering sequence S opens
	// its log with InitialSeq S+1 so its records line up with the
	// leader's. Ignored when segments already exist.
	InitialSeq uint64
}

func (o WALOptions) withDefaults() WALOptions {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	return o
}

// ReplayStats reports what opening a WAL found on disk.
type ReplayStats struct {
	// Segments is the number of segment files present at open.
	Segments int
	// Records is the number of valid records found at open.
	Records int
	// LastSeq is the highest sequence number on disk (0 when empty).
	LastSeq uint64
	// TornTail reports that the final segment ended in a partial record,
	// which was truncated away.
	TornTail bool
	// TruncatedBytes is the size of the discarded torn tail.
	TruncatedBytes int64
}

// WAL is an append-only, segmented, checksummed log. All methods are
// safe for concurrent use; appends are serialised internally.
type WAL struct {
	dir  string
	opts WALOptions

	mu       sync.Mutex
	f        *os.File // active segment
	size     int64    // bytes written to the active segment
	segFirst uint64   // first sequence in the active segment
	segRecs  int      // records in the active segment
	nextSeq  uint64
	closed   bool
	// epoch and fenced are the persisted replication-epoch state (see
	// epoch.go). A fenced log rejects every append with *FencedError.
	epoch  uint64
	fenced bool

	stats ReplayStats
}

// OpenWAL opens (creating if needed) the log in dir, scans and
// validates every existing record, truncates a torn tail off the final
// segment, and readies the log for appends after the highest sequence
// found. Damage other than a torn tail aborts the open with a typed
// error.
func OpenWAL(dir string, opts WALOptions) (*WAL, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: open WAL: %w", err)
	}
	w := &WAL{dir: dir, opts: opts, nextSeq: 1}
	var err error
	if w.epoch, w.fenced, err = loadEpoch(filepath.Join(dir, epochFileName)); err != nil {
		return nil, err
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	w.stats.Segments = len(segs)
	// Validate every segment; the last may have a torn tail. expect=0 for
	// the first segment: a snapshot may have truncated earlier ones, so
	// the log legitimately starts past sequence 1.
	var expect uint64
	for i, seg := range segs {
		last := i == len(segs)-1
		res, err := scanSegment(seg.path, seg.firstSeq, expect, last)
		if err != nil {
			return nil, err
		}
		if res.lastSeq > 0 {
			expect = res.lastSeq + 1
		}
		w.stats.Records += res.records
		if res.lastSeq > 0 {
			w.nextSeq = res.lastSeq + 1
			w.stats.LastSeq = res.lastSeq
		} else if i == 0 {
			// Empty log whose first segment starts past 1 (post-truncation).
			w.nextSeq = seg.firstSeq
		}
		if res.tornAt >= 0 {
			w.stats.TornTail = true
			w.stats.TruncatedBytes = res.size - res.tornAt
			if err := os.Truncate(seg.path, res.tornAt); err != nil {
				return nil, fmt.Errorf("durable: truncate torn WAL tail %s: %w", seg.path, err)
			}
		}
	}
	// Reopen the last segment for appending, or start a fresh one.
	if len(segs) > 0 {
		seg := segs[len(segs)-1]
		f, err := os.OpenFile(seg.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("durable: open WAL segment: %w", err)
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("durable: stat WAL segment: %w", err)
		}
		w.f, w.size, w.segFirst = f, st.Size(), seg.firstSeq
		w.segRecs = int(w.nextSeq - seg.firstSeq)
	} else {
		if opts.InitialSeq > 1 {
			w.nextSeq = opts.InitialSeq
		}
		if err := w.openSegmentLocked(); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// Stats returns what the open-time scan found.
func (w *WAL) Stats() ReplayStats { return w.stats }

// LastSeq returns the sequence of the most recent record (0 if none).
func (w *WAL) LastSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextSeq - 1
}

// Dir returns the directory the log lives in.
func (w *WAL) Dir() string { return w.dir }

// Append writes one record and returns its sequence number. Under
// SyncAlways the record is on stable storage when Append returns; see
// SyncNever for what it gives up. An error means the record must be
// treated as not written: the caller should refuse the update rather
// than acknowledge something the log may not hold.
func (w *WAL) Append(payload []byte) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, ErrClosed
	}
	if w.fenced {
		return 0, &FencedError{Op: "append", Epoch: w.epoch}
	}
	seq := w.nextSeq
	if err := w.appendLocked(payload); err != nil {
		return 0, err
	}
	return seq, nil
}

// AppendReplicated writes one record a follower received from its
// leader's tail stream, keeping the leader's sequence number. seq must
// be exactly the next sequence — replication delivers records in order
// with no gaps, so anything else means the stream and the local log
// have diverged and the follower must stop rather than fabricate
// history. Fsync semantics match Append.
func (w *WAL) AppendReplicated(seq uint64, payload []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if w.fenced {
		return &FencedError{Op: "append", Epoch: w.epoch}
	}
	if seq != w.nextSeq {
		return fmt.Errorf("durable: replicated append out of order: got seq %d, want %d", seq, w.nextSeq)
	}
	return w.appendLocked(payload)
}

// appendLocked writes the record for nextSeq and advances it. Caller
// holds w.mu and has checked closed/fenced.
func (w *WAL) appendLocked(payload []byte) error {
	if int64(len(payload)) > MaxRecordBytes {
		return fmt.Errorf("durable: WAL record too large (%d bytes)", len(payload))
	}
	if w.size > 0 && w.size+recordHeaderSize+int64(len(payload)) > w.opts.SegmentBytes {
		if err := w.rotateLocked(); err != nil {
			return err
		}
	}
	rec := MarshalRecord(w.nextSeq, payload)
	if _, err := w.f.Write(rec); err != nil {
		// The segment may now hold a partial record; that is exactly the
		// torn-tail case the next open truncates away.
		return fmt.Errorf("durable: WAL append: %w", err)
	}
	w.size += int64(len(rec))
	w.segRecs++
	w.nextSeq++
	if w.opts.Sync == SyncAlways {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("durable: WAL fsync: %w", err)
		}
	}
	return nil
}

// Epoch returns the persisted replication epoch (0 for a log that never
// took part in replication).
func (w *WAL) Epoch() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.epoch
}

// Fenced reports whether the log has been fenced by a newer epoch.
func (w *WAL) Fenced() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.fenced
}

// Fence marks the log deposed as of epoch, persistently: every later
// append fails with *FencedError, across restarts too. epoch must
// exceed the current epoch (re-fencing at the already-fenced epoch is a
// no-op); fencing at or below the current epoch of an unfenced log is
// refused — a stale fence request must not depose a current leader.
func (w *WAL) Fence(epoch uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if w.fenced && epoch <= w.epoch {
		return nil // already fenced at least this hard
	}
	if epoch <= w.epoch {
		return &FencedError{Op: "fence", Epoch: w.epoch}
	}
	if err := writeEpoch(filepath.Join(w.dir, epochFileName), epoch, true); err != nil {
		return err
	}
	w.epoch, w.fenced = epoch, true
	return nil
}

// BumpEpoch advances the epoch by one and clears any fence — the
// promotion step: the node now owns the sequence space under the new
// epoch. The new epoch is persisted before it takes effect.
func (w *WAL) BumpEpoch() (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, ErrClosed
	}
	next := w.epoch + 1
	if err := writeEpoch(filepath.Join(w.dir, epochFileName), next, false); err != nil {
		return 0, err
	}
	w.epoch, w.fenced = next, false
	return next, nil
}

// AdoptEpoch raises the log to a leader's (strictly newer) epoch — the
// follower step when a tail stream reports a higher epoch than the
// follower has seen. Adopting the current epoch is a no-op; adopting a
// LOWER epoch is refused with *FencedError, which is exactly how a
// follower rejects a deposed leader's stream.
func (w *WAL) AdoptEpoch(epoch uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if epoch == w.epoch {
		return nil
	}
	if epoch < w.epoch {
		return &FencedError{Op: "tail", Epoch: w.epoch}
	}
	if err := writeEpoch(filepath.Join(w.dir, epochFileName), epoch, false); err != nil {
		return err
	}
	w.epoch, w.fenced = epoch, false
	return nil
}

// Replay streams every record with sequence > after, in order, to fn:
// a walk of ReadFrom(after+1), so it reflects exactly what survived on
// disk up to the last sequence at call time. The payload is valid only
// until fn returns; copy to retain. A fn error aborts the replay and is
// returned unchanged. A log whose oldest record is past after+1 is
// missing records the caller needs, and Replay refuses it with a
// *CorruptError instead of replaying around the hole.
func (w *WAL) Replay(after uint64, fn func(seq uint64, payload []byte) error) error {
	it, err := w.ReadFrom(after + 1)
	if errors.Is(err, ErrCompacted) {
		return &CorruptError{Path: w.dir, Offset: 0, Detail: "WAL start",
			Err: fmt.Errorf("log starts past seq %d: %w", after+1, ErrTruncated)}
	}
	if err != nil {
		return err
	}
	defer it.Close()
	for {
		seq, payload, err := it.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(seq, payload); err != nil {
			return err
		}
	}
}

// TruncateThrough removes segments whose records are all covered by a
// snapshot at seq, reclaiming disk. If every record on disk is covered,
// the active segment is sealed and a fresh one opened first so the
// invariant "the active segment holds only live records" is preserved.
func (w *WAL) TruncateThrough(seq uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if w.segRecs > 0 && w.nextSeq-1 <= seq {
		if err := w.rotateLocked(); err != nil {
			return err
		}
	}
	segs, err := listSegments(w.dir)
	if err != nil {
		return err
	}
	removed := false
	for i, s := range segs {
		// A sealed segment's records end where the next segment begins.
		var lastInSeg uint64
		if i+1 < len(segs) {
			lastInSeg = segs[i+1].firstSeq - 1
		} else {
			break // active segment: never removed here
		}
		if lastInSeg <= seq && s.firstSeq <= lastInSeg {
			if err := os.Remove(s.path); err != nil {
				return fmt.Errorf("durable: remove WAL segment: %w", err)
			}
			removed = true
		}
	}
	if removed {
		return syncDir(w.dir)
	}
	return nil
}

// Close flushes, fsyncs and closes the log. Further appends fail with
// ErrClosed.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	var err error
	if w.f != nil {
		if serr := w.f.Sync(); serr != nil {
			err = serr
		}
		if cerr := w.f.Close(); cerr != nil && err == nil {
			err = cerr
		}
		w.f = nil
	}
	return err
}

// rotateLocked seals the active segment (fsync + close) and opens a new
// one starting at nextSeq. Caller holds w.mu.
func (w *WAL) rotateLocked() error {
	if w.f != nil {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("durable: seal WAL segment: %w", err)
		}
		if err := w.f.Close(); err != nil {
			return fmt.Errorf("durable: seal WAL segment: %w", err)
		}
		w.f = nil
	}
	return w.openSegmentLocked()
}

// openSegmentLocked creates the segment file for nextSeq.
func (w *WAL) openSegmentLocked() error {
	path := filepath.Join(w.dir, segmentName(w.nextSeq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("durable: create WAL segment: %w", err)
	}
	if err := syncDir(w.dir); err != nil {
		f.Close()
		return err
	}
	w.f, w.size, w.segFirst, w.segRecs = f, 0, w.nextSeq, 0
	return nil
}

func segmentName(firstSeq uint64) string {
	return fmt.Sprintf("wal-%016x.log", firstSeq)
}

type segmentInfo struct {
	path     string
	firstSeq uint64
}

// listSegments returns the segment files in dir in sequence order.
func listSegments(dir string) ([]segmentInfo, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("durable: list WAL segments: %w", err)
	}
	var segs []segmentInfo
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
			continue
		}
		hexPart := strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log")
		first, perr := strconv.ParseUint(hexPart, 16, 64)
		if perr != nil || len(hexPart) != 16 {
			return nil, &CorruptError{Path: filepath.Join(dir, name), Offset: 0,
				Detail: "segment file name", Err: ErrBadMagic}
		}
		segs = append(segs, segmentInfo{path: filepath.Join(dir, name), firstSeq: first})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstSeq < segs[j].firstSeq })
	return segs, nil
}

// scanResult reports one segment's scan.
type scanResult struct {
	records int
	lastSeq uint64
	size    int64
	tornAt  int64 // byte offset of a torn tail, -1 if none
}

// scanSegment validates every record in one segment file. expect
// is the sequence the first record must carry (0 to accept the
// segment's declared first sequence — used when earlier segments were
// truncated away by a snapshot). In the final segment (last=true) a
// record cut short by EOF is reported via tornAt instead of an error;
// any other damage is a *CorruptError.
func scanSegment(path string, firstSeq, expect uint64, last bool) (scanResult, error) {
	res := scanResult{tornAt: -1}
	f, err := os.Open(path)
	if err != nil {
		return res, fmt.Errorf("durable: open WAL segment: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return res, fmt.Errorf("durable: stat WAL segment: %w", err)
	}
	res.size = st.Size()

	if expect == 0 {
		expect = firstSeq
	} else if firstSeq != expect {
		return res, &CorruptError{Path: path, Offset: 0, Detail: "segment sequence",
			Err: fmt.Errorf("segment starts at seq %d, want %d: %w", firstSeq, expect, ErrTruncated)}
	}
	rr := newRecordReader(f, path)
	for {
		start := rr.off
		seq, _, err := rr.Next()
		switch {
		case err == io.EOF:
			return res, nil // clean end
		case err == io.ErrUnexpectedEOF && last:
			res.tornAt = start // a tolerated torn tail
			return res, nil
		case err == io.ErrUnexpectedEOF:
			return res, &CorruptError{Path: path, Offset: start, Detail: "torn record", Err: ErrTruncated}
		case err != nil:
			return res, err
		}
		if seq != expect {
			return res, &CorruptError{Path: path, Offset: start, Detail: "record sequence",
				Err: fmt.Errorf("found seq %d, want %d: %w", seq, expect, ErrChecksum)}
		}
		res.records++
		res.lastSeq = seq
		expect++
	}
}

// MarshalRecord encodes one record in the WAL's on-disk format — the
// same bytes Append writes. The replication stream ships records in this
// format so a follower can CRC-check and apply them without a second
// framing layer.
func MarshalRecord(seq uint64, payload []byte) []byte {
	rec := make([]byte, recordHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:8], recordChecksum(seq, payload))
	binary.LittleEndian.PutUint64(rec[8:16], seq)
	copy(rec[recordHeaderSize:], payload)
	return rec
}

// recordChecksum covers the sequence number and the payload, so a
// record copied to the wrong position fails its check.
func recordChecksum(seq uint64, payload []byte) uint32 {
	var s [8]byte
	binary.LittleEndian.PutUint64(s[:], seq)
	crc := crc32.Update(0, castagnoli, s[:])
	return crc32.Update(crc, castagnoli, payload)
}
