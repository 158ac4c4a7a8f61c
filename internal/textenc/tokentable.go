package textenc

import (
	"encoding/binary"
	"unsafe"
)

// tokenTable is the vocabulary's one lookup structure: an open-addressing
// hash table, linear probing over a power-of-two array of slots, holding
// every token under its surface form (a whole key) and every "##"
// continuation token also under its surface without the prefix (a
// continuation key), which is what the greedy segmentation probes, so no
// "##"+piece string is ever built. A slot keeps the key's first 16 bytes
// inline, so a probe for a key of at most 16 bytes — nearly every word of
// a query — reads one slot and no token string; a longer key compares
// the rest against the token it names. At most three slots in four are
// full, so a probe reads two slots on average.
type tokenTable struct {
	slots  []tokenSlot
	n      int // keys held
	maxKey int // bytes in the longest key: no longer candidate can match
}

// tokenSlot is one key: its first 16 bytes as two little-endian words,
// zero past its end; ref, the token id plus one (0 marks an empty slot);
// and meta, 16 bits of the key's hash, its kind and its length (capped).
type tokenSlot struct {
	head [2]uint64
	ref  int32
	meta uint32
}

// The two kinds of key.
const (
	wholeKey = 0
	contKey  = 1
)

// metaOf packs a key's hash bits, kind and length, the length capped at
// 0x7fff: a longer key is past 16 bytes, so its full bytes are compared.
func metaOf(sum uint64, kind, n int) uint32 {
	return uint32(sum>>48)<<16 | uint32(kind)<<15 | uint32(min(n, 0x7fff))
}

// hashKey returns the hash of key as a key of the given kind and its first
// 16 bytes as a slot holds them. It reads key eight bytes at a time, the
// last word zero-padded, and mixes each word with a multiply and a shift;
// the length and kind enter at the end.
func hashKey(key []byte, kind int) (sum uint64, head [2]uint64) {
	const m = 0x9e3779b97f4a7c15
	h := uint64(0x243f6a8885a308d3)
	i := 0
	for ; i+8 <= len(key); i += 8 {
		w := binary.LittleEndian.Uint64(key[i:])
		if i < 16 {
			head[i/8] = w
		}
		h = (h ^ w) * m
		h ^= h >> 32
	}
	if rem := len(key) - i; rem > 0 {
		// The last 1-7 bytes: two 4-byte loads that may overlap, or three
		// single bytes.
		var w uint64
		if rem >= 4 {
			lo := uint64(binary.LittleEndian.Uint32(key[i:]))
			hi := uint64(binary.LittleEndian.Uint32(key[len(key)-4:]))
			w = lo | hi>>(8*(8-rem))<<32
		} else {
			w = uint64(key[i]) | uint64(key[i+rem/2])<<(8*(rem/2)) | uint64(key[i+rem-1])<<(8*(rem-1))
		}
		if i < 16 {
			head[i/8] = w
		}
		h = (h ^ w) * m
		h ^= h >> 32
	}
	h ^= uint64(len(key))<<1 | uint64(kind)
	h *= 0xbf58476d1ce4e5b9
	return h ^ h>>31, head
}

// bytesOf views s as bytes, read only: the table hashes and compares
// strings and byte slices through one code path without copying.
func bytesOf(s string) []byte { return unsafe.Slice(unsafe.StringData(s), len(s)) }

// find returns the id of key as a key of the given kind, if present;
// tokens are the vocabulary's, read only when a key is longer than a slot
// holds.
func (t *tokenTable) find(key []byte, kind int, tokens []string) (TokenID, bool) {
	if len(t.slots) == 0 || len(key) > t.maxKey {
		return 0, false
	}
	sum, head := hashKey(key, kind)
	meta := metaOf(sum, kind, len(key))
	mask := uint64(len(t.slots) - 1)
	for i := sum & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.ref == 0 {
			return 0, false
		}
		if s.meta != meta || s.head != head {
			continue
		}
		id := TokenID(s.ref - 1)
		if len(key) <= 16 || string(key[16:]) == keyOf(tokens[id], kind)[16:] {
			return id, true
		}
	}
}

// keyOf returns the key of the given kind a token is held under.
func keyOf(tok string, kind int) string {
	if kind == contKey {
		return tok[2:]
	}
	return tok
}

// insert adds key, of the given kind, for token id; the key must not be
// present. tokens are the tokens of every id already held.
func (t *tokenTable) insert(key []byte, kind int, id TokenID, tokens []string) {
	if (t.n+1)*4 > len(t.slots)*3 {
		t.grow(tokens)
	}
	t.put(key, kind, id)
	t.n++
	t.maxKey = max(t.maxKey, len(key))
}

// put writes key into the first free slot of its probe sequence.
func (t *tokenTable) put(key []byte, kind int, id TokenID) {
	sum, head := hashKey(key, kind)
	mask := uint64(len(t.slots) - 1)
	i := sum & mask
	for t.slots[i].ref != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = tokenSlot{head: head, ref: int32(id) + 1, meta: metaOf(sum, kind, len(key))}
}

// grow doubles the slot array (from 16 slots) and re-inserts every key,
// rebuilt from the tokens of the ids it holds.
func (t *tokenTable) grow(tokens []string) {
	old := t.slots
	t.slots = make([]tokenSlot, max(16, 2*len(old)))
	for _, s := range old {
		if s.ref == 0 {
			continue
		}
		kind := int(s.meta>>15) & 1
		t.put(bytesOf(keyOf(tokens[s.ref-1], kind)), kind, TokenID(s.ref-1))
	}
}

// reserve sizes an empty table for n keys, so inserting them never grows
// it.
func (t *tokenTable) reserve(n int) {
	size := 16
	for size*3 < n*4 {
		size *= 2
	}
	t.slots = make([]tokenSlot, size)
}
