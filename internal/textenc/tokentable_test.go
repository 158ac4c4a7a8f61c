package textenc

import "testing"

// TestTokenTableMissesMetaCollision inserts one key into a 16-slot table
// and probes a different key of the same length, the same home slot and
// the same metaOf bits, so that only the key bytes the slot compares can
// tell them apart. No corpus holds such a pair, so this is the one check
// that find compares every byte: the 14-byte pair shares its first 8
// bytes and differs in the slot's second head word; the 21-byte pair
// shares the whole 16-byte head and differs in the bytes compared against
// the token itself.
func TestTokenTableMissesMetaCollision(t *testing.T) {
	for _, c := range []struct {
		key    string
		shared int
	}{
		{"abcdefghaaaaaa", 8},
		{"abcdefghijklmnopaaaaa", 16},
	} {
		probe := metaCollider(t, c.key, c.shared)
		var tab tokenTable
		tab.reserve(1)
		tokens := []string{c.key}
		tab.insert(bytesOf(c.key), wholeKey, 0, tokens)
		if id, ok := tab.find(bytesOf(c.key), wholeKey, tokens); !ok || id != 0 {
			t.Fatalf("find(%q) = %d, %v; want 0, true", c.key, id, ok)
		}
		if id, ok := tab.find(bytesOf(probe), wholeKey, tokens); ok {
			t.Errorf("find(%q) = %d in a table holding only %q", probe, id, c.key)
		}
	}
}

// metaCollider returns a key other than key, of its length and starting
// with its first shared bytes, whose hash has key's metaOf bits and home
// slot in a 16-slot table: the first found by counting through lowercase
// suffixes, about 2^20 tries for the 20 bits it must match.
func metaCollider(t *testing.T, key string, shared int) string {
	t.Helper()
	sum, _ := hashKey(bytesOf(key), wholeKey)
	buf := []byte(key)
	tail := buf[shared:]
	for i := 0; i < 1<<26; i++ {
		for j, x := 0, i; j < len(tail); j, x = j+1, x/26 {
			tail[j] = 'a' + byte(x%26)
		}
		s, _ := hashKey(buf, wholeKey)
		if s>>48 == sum>>48 && s&15 == sum&15 && string(buf) != key {
			return string(buf)
		}
	}
	t.Fatalf("no key collides with %q", key)
	return ""
}
