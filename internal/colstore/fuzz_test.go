package colstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"expertfind/internal/durable"
)

// FuzzSectionHeader feeds arbitrary bytes to the section parser at an
// arbitrary offset and asserts the invariant the rest of the stack
// relies on: parsing never panics, and every rejection is a typed
// *durable.CorruptError or *durable.VersionError (or an accepted,
// fully-validated section). This mirrors FuzzLoadCorrupt on the
// snapshot container one layer up.
func FuzzSectionHeader(f *testing.F) {
	// Seed with a real section so mutation explores the parsed region.
	var buf bytes.Buffer
	_, _, err := WriteSection(&buf, 0, []SegmentData{
		F32Seg("embs", []float32{1, 2, 3}),
		I32Seg("ids", []int32{4, 5, 6}),
		U64Seg("nbroff", []uint64{0, 3}),
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes(), int64(0))
	f.Add(buf.Bytes()[:headerSize+3], int64(0))
	f.Add(buf.Bytes(), int64(17))
	f.Add([]byte("EFCOLSEG"), int64(0))
	hdr := make([]byte, headerSize)
	copy(hdr, SectionMagic[:])
	binary.LittleEndian.PutUint16(hdr[8:10], 9) // future version
	f.Add(hdr, int64(0))

	f.Fuzz(func(t *testing.T, data []byte, off int64) {
		s, err := OpenReaderAt(bytes.NewReader(data), "<fuzz>", int64(len(data)), off)
		if err == nil {
			// Accepted sections must behave: every declared segment of a
			// kind with an accessor reads without panicking.
			for _, sg := range s.dir {
				switch sg.Kind {
				case KindF32:
					s.Float32s(sg.Name)
				case KindI32:
					Int32s[int32](s, sg.Name)
				case KindU64:
					s.Uint64s(sg.Name)
				case KindU8:
					s.Bytes(sg.Name)
				}
			}
			return
		}
		var ce *durable.CorruptError
		var ve *durable.VersionError
		if !errors.As(err, &ce) && !errors.As(err, &ve) {
			t.Fatalf("untyped parse error: %T %v", err, err)
		}
	})
}
