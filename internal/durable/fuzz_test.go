package durable

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// drain reads records until the reader stops and returns them with the
// terminal error, failing on anything but the three documented ends.
func drain(t *testing.T, rr *RecordReader) (seqs []uint64, payloads [][]byte, end error) {
	t.Helper()
	for {
		seq, payload, err := rr.Next()
		if cap(rr.buf) > MaxRecordBytes {
			t.Fatalf("decoder holds a %d-byte buffer, above MaxRecordBytes", cap(rr.buf))
		}
		if err != nil {
			var ce *CorruptError
			if err != io.EOF && err != io.ErrUnexpectedEOF && !errors.As(err, &ce) {
				t.Fatalf("untyped end of stream: %T %v", err, err)
			}
			return seqs, payloads, err
		}
		seqs = append(seqs, seq)
		payloads = append(payloads, append([]byte(nil), payload...))
	}
}

// FuzzWALRecord drives the one record decoder two ways. Arbitrary bytes
// must never panic it, never make it buffer more than MaxRecordBytes, and
// never yield more record bytes than the input holds. And a valid stream
// cut at any offset and flipped at any offset must come back as an intact
// prefix of its records followed by an honest verdict — clean only at a
// record boundary of an unflipped stream, torn or corrupt otherwise: a
// damaged log is never silently a shorter one.
func FuzzWALRecord(f *testing.F) {
	records := [][]byte{[]byte("first"), {}, bytes.Repeat([]byte{0xA5}, 300), []byte("last")}
	var valid []byte
	var ends []int // ends[i]: offset one past record i
	for i, p := range records {
		valid = append(valid, MarshalRecord(uint64(i+1), p)...)
		ends = append(ends, len(valid))
	}
	f.Add(valid, uint32(len(valid)), uint32(0), byte(0))
	f.Add(valid[:ends[1]+7], uint32(ends[2]), uint32(ends[0]+2), byte(0x40))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x03, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0}, uint32(ends[0]), uint32(3), byte(0x04))
	f.Add([]byte("garbage"), uint32(9), uint32(ends[3]-1), byte(0x01))

	f.Fuzz(func(t *testing.T, data []byte, cut, pos uint32, mask byte) {
		_, payloads, _ := drain(t, NewRecordReader(bytes.NewReader(data)))
		total := 0
		for _, p := range payloads {
			total += recordHeaderSize + len(p)
		}
		if total > len(data) {
			t.Fatalf("%d bytes of records out of %d bytes of input", total, len(data))
		}

		kept := int(cut) % (len(valid) + 1)
		mut := append([]byte(nil), valid[:kept]...)
		flipAt := -1
		if mask != 0 && kept > 0 {
			flipAt = int(pos) % kept
			mut[flipAt] ^= mask
		}
		// The records that lie wholly before the first damaged byte.
		intact := 0
		for intact < len(ends) && ends[intact] <= kept && (flipAt < 0 || ends[intact] <= flipAt) {
			intact++
		}
		seqs, payloads, end := drain(t, NewRecordReader(bytes.NewReader(mut)))
		if len(seqs) != intact {
			t.Fatalf("cut %d flip %d: %d records back, %d intact", kept, flipAt, len(seqs), intact)
		}
		for i := range seqs {
			if seqs[i] != uint64(i+1) || !bytes.Equal(payloads[i], records[i]) {
				t.Fatalf("cut %d flip %d: record %d came back changed", kept, flipAt, i)
			}
		}
		atBoundary := kept == 0 || (intact > 0 && ends[intact-1] == kept)
		if clean := flipAt < 0 && atBoundary; clean != (end == io.EOF) {
			t.Fatalf("cut %d flip %d: stream ended with %v", kept, flipAt, end)
		}
		if flipAt < 0 && !atBoundary && end != io.ErrUnexpectedEOF {
			t.Fatalf("cut %d mid-record: got %v, want io.ErrUnexpectedEOF", kept, end)
		}
	})
}
