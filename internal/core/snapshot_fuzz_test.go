package core

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"

	"expertfind/internal/dataset"
	"expertfind/internal/durable"
	"expertfind/internal/hetgraph"
)

// snapshotFixture builds one tiny engine and serialises it, shared by
// the corruption tests and the fuzzer. The build skips fine-tuning so
// the fixture is cheap; saving and loading exercise the same paths.
var snapshotFixture = struct {
	once  sync.Once
	ds    *dataset.Dataset
	bytes []byte
	err   error
}{}

func validSnapshotBytes(t testing.TB) ([]byte, *dataset.Dataset) {
	f := &snapshotFixture
	f.once.Do(func() {
		f.ds = dataset.Generate(dataset.AminerSim(60))
		e, err := Build(f.ds.Graph, Options{Dim: 4, Seed: 3, UseKPCore: Bool(false)})
		if err != nil {
			f.err = err
			return
		}
		// Include a journalled update so the Updates path is covered.
		authors := f.ds.Graph.NodesOfType(hetgraph.Author)
		if _, err := e.AddPaper(NewPaper{Text: "journalled paper", Authors: authors[:1]}); err != nil {
			f.err = err
			return
		}
		var buf bytes.Buffer
		_, f.err = e.SaveSnapshot(&buf)
		f.bytes = buf.Bytes()
	})
	if f.err != nil {
		t.Fatal(f.err)
	}
	return f.bytes, f.ds
}

// typedLoadError reports whether err is one of the durability layer's
// deliberate error classes, as opposed to a raw decoder message or a
// panic converted to a failure.
func typedLoadError(err error) bool {
	var ce *durable.CorruptError
	var ve *durable.VersionError
	return errors.As(err, &ce) || errors.As(err, &ve) ||
		errors.Is(err, durable.ErrTruncated) ||
		errors.Is(err, durable.ErrChecksum) ||
		errors.Is(err, durable.ErrBadMagic)
}

// TestLoadCorruptionsAreTyped damages a valid snapshot every way the
// fault model covers and asserts each one is rejected with a typed,
// contextual error — never a bare "wire: ..." string, never a partially
// loaded engine.
func TestLoadCorruptionsAreTyped(t *testing.T) {
	valid, _ := validSnapshotBytes(t)
	freshGraph := func() *hetgraph.Graph {
		return dataset.Generate(dataset.AminerSim(60)).Graph
	}
	e, err := loadBytes(valid, freshGraph())
	if err != nil {
		t.Fatal(err)
	}

	t.Run("truncations", func(t *testing.T) {
		for _, cut := range []int{0, 1, 5, 19, 20, 21, len(valid) / 2, len(valid) - 1} {
			_, err := loadBytes(valid[:cut], freshGraph())
			if err == nil {
				t.Fatalf("truncation at %d accepted", cut)
			}
			if !errors.Is(err, durable.ErrTruncated) {
				t.Fatalf("truncation at %d: want ErrTruncated, got %v", cut, err)
			}
		}
	})

	t.Run("bit flips", func(t *testing.T) {
		// A sweep over the header plus samples through the payload.
		offsets := []int{0, 3, 6, 7, 9, 17, 20, 40, len(valid) / 3, len(valid) / 2, len(valid) - 1}
		for _, off := range offsets {
			mut := append([]byte(nil), valid...)
			mut[off] ^= 0x04
			_, err := loadBytes(mut, freshGraph())
			if err == nil {
				t.Fatalf("bit flip at %d accepted", off)
			}
			if !typedLoadError(err) {
				t.Fatalf("bit flip at %d: untyped error %v", off, err)
			}
			if strings.HasPrefix(err.Error(), "wire:") {
				t.Fatalf("bit flip at %d surfaces a raw wire error: %v", off, err)
			}
		}
	})

	t.Run("foreign file", func(t *testing.T) {
		_, err := loadBytes([]byte("not a snapshot at all, definitely long enough"), freshGraph())
		if !errors.Is(err, durable.ErrBadMagic) {
			t.Fatalf("want ErrBadMagic, got %v", err)
		}
	})

	t.Run("future version", func(t *testing.T) {
		mut := withMeta(t, e, valid, func(meta []byte) []byte {
			meta[1] = 0xFF // the version byte after the tag
			return meta
		})
		_, err := loadBytes(mut, freshGraph())
		var ve *durable.VersionError
		if !errors.As(err, &ve) || ve.Got != 0xFF || ve.Max != snapshotVersion {
			t.Fatalf("want *VersionError{Got: 255, Max: %d}, got %v", snapshotVersion, err)
		}
	})

	t.Run("meta damage carries offset context", func(t *testing.T) {
		// A section that checks out (directory and every CRC consistent)
		// but whose meta segment stops early — the shape of an
		// incompatible or buggy writer rather than bit rot. The typed error
		// must say the meta segment was the problem and carry the offset
		// where the walk stopped.
		cut := len(savedMeta(t, valid)) - 10
		mut := withMeta(t, e, valid, func(meta []byte) []byte { return meta[:cut] })
		_, err := loadBytes(mut, freshGraph())
		var ce *durable.CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("want *CorruptError, got %v", err)
		}
		if ce.Detail != "snapshot meta segment" {
			t.Fatalf("wrong detail: %+v", ce)
		}
		if ce.Offset <= 0 || ce.Offset > int64(cut) {
			t.Fatalf("no offset context inside the %d-byte segment: %+v", cut, ce)
		}
	})
}

// FuzzLoadCorrupt mutates valid snapshot bytes at an arbitrary position
// and asserts the invariant behind the whole durability layer: a load
// never panics on damaged input and always rejects it with a typed
// error. The segment checksums make any single-byte change detectable, so err must be non-nil whenever the bytes differ.
func FuzzLoadCorrupt(f *testing.F) {
	valid, _ := validSnapshotBytes(f)
	g := dataset.Generate(dataset.AminerSim(60)).Graph
	f.Add(uint32(0), byte(0xFF))
	f.Add(uint32(7), byte(0x01))
	f.Add(uint32(25), byte(0x80))
	f.Add(uint32(len(valid)-1), byte(0x40))
	f.Fuzz(func(t *testing.T, pos uint32, mask byte) {
		if mask == 0 {
			t.Skip("identity mutation")
		}
		mut := append([]byte(nil), valid...)
		mut[int(pos)%len(mut)] ^= mask
		_, err := loadBytes(mut, g)
		if err == nil {
			t.Fatalf("mutation at %d (mask %#x) went undetected", int(pos)%len(mut), mask)
		}
		if !typedLoadError(err) {
			t.Fatalf("mutation at %d: untyped error %T: %v", int(pos)%len(mut), err, err)
		}
	})
}
