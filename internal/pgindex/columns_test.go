package pgindex

import (
	"math/rand"
	"testing"

	"expertfind/internal/hetgraph"
	"expertfind/internal/vec"
)

func buildTestIndex(t *testing.T, n, dim int) *Index {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	embs := make(map[hetgraph.NodeID]vec.Vec32, n)
	for i := 0; i < n; i++ {
		v := make(vec.Vec32, dim)
		for j := range v {
			v[j] = float32(rng.NormFloat64())
		}
		embs[hetgraph.NodeID(i*3+1)] = v
	}
	return Build(embs, Config{K: 4, Refine: true, Seed: 5})
}

// reload persists idx the way the product does — Columns() out,
// FromColumns() back in — through a deep copy of every column, so the
// returned index shares no storage with idx (as after a reload from
// disk).
func reload(t *testing.T, idx *Index) *Index {
	t.Helper()
	c := idx.Columns()
	c.IDs = append([]hetgraph.NodeID(nil), c.IDs...)
	c.Embs = append([]float32(nil), c.Embs...)
	c.NbrOff = append([]uint64(nil), c.NbrOff...)
	c.NbrDat = append([]int32(nil), c.NbrDat...)
	c.Entries = append([]int32(nil), c.Entries...)
	loaded, err := FromColumns(c)
	if err != nil {
		t.Fatalf("FromColumns: %v", err)
	}
	return loaded
}

// TestColumnsRoundTrip proves Columns → FromColumns reproduces the index
// exactly: identical search results (distances compared as raw bits) and
// identical adjacency.
func TestColumnsRoundTrip(t *testing.T) {
	idx := buildTestIndex(t, 120, 8)
	got, err := FromColumns(idx.Columns())
	if err != nil {
		t.Fatalf("FromColumns: %v", err)
	}

	if got.Len() != idx.Len() || got.nav != idx.nav {
		t.Fatalf("header mismatch: %v vs %v", got, idx)
	}
	for i := range idx.nbrs {
		if len(got.nbrs[i]) != len(idx.nbrs[i]) {
			t.Fatalf("node %d degree %d vs %d", i, len(got.nbrs[i]), len(idx.nbrs[i]))
		}
		for j := range idx.nbrs[i] {
			if got.nbrs[i][j] != idx.nbrs[i][j] {
				t.Fatalf("node %d nbr %d mismatch", i, j)
			}
		}
	}

	query := make(vec.Vec32, 8)
	for j := range query {
		query[j] = float32(j) * 0.25
	}
	want, _ := idx.Search(query, 10, 32)
	have, _ := got.Search(query, 10, 32)
	if err := sameResults(have, want); err != nil {
		t.Fatal(err)
	}
}

// TestFromColumnsCSRViewsFullCap pins the mmap safety property at this
// layer: adjacency views must be capped at their length, so the reverse
// edge Insert appends lands in a fresh heap allocation, never in the
// (possibly read-only, possibly neighbouring-list) backing block.
func TestFromColumnsCSRViewsFullCap(t *testing.T) {
	idx := buildTestIndex(t, 60, 4)
	got, err := FromColumns(idx.Columns())
	if err != nil {
		t.Fatal(err)
	}
	for i, nb := range got.nbrs {
		if cap(nb) != len(nb) {
			t.Fatalf("node %d adjacency view cap %d != len %d", i, cap(nb), len(nb))
		}
	}
	// Exercise the real hazard: Insert appends reverse edges to existing
	// lists. After the insert the original columns must be untouched.
	cols := got.Columns()
	before := append([]int32(nil), cols.NbrDat...)
	v := make(vec.Vec32, 4)
	for j := range v {
		v[j] = 0.5
	}
	reloaded, err := FromColumns(cols)
	if err != nil {
		t.Fatal(err)
	}
	reloaded.Insert(hetgraph.NodeID(9999), v)
	for i := range before {
		if cols.NbrDat[i] != before[i] {
			t.Fatalf("Insert scribbled on shared CSR data at %d", i)
		}
	}
}

func TestFromColumnsRejectsCorruptShapes(t *testing.T) {
	idx := buildTestIndex(t, 40, 4)
	base := idx.Columns()

	mutate := func(f func(c *Columns)) Columns {
		c := base
		c.NbrOff = append([]uint64(nil), base.NbrOff...)
		c.NbrDat = append([]int32(nil), base.NbrDat...)
		c.Entries = append([]int32(nil), base.Entries...)
		c.IDs = append([]hetgraph.NodeID(nil), base.IDs...)
		f(&c)
		return c
	}
	cases := map[string]Columns{
		"truncated offsets":  mutate(func(c *Columns) { c.NbrOff = c.NbrOff[:len(c.NbrOff)-1] }),
		"decreasing offsets": mutate(func(c *Columns) { c.NbrOff[1] = c.NbrOff[2] + 5; c.NbrOff[2] = 0 }),
		"dangling edge":      mutate(func(c *Columns) { c.NbrDat[0] = int32(len(c.IDs)) }),
		"negative edge":      mutate(func(c *Columns) { c.NbrDat[0] = -1 }),
		"bad nav":            mutate(func(c *Columns) { c.Nav = int32(len(c.IDs)) }),
		"bad entry":          mutate(func(c *Columns) { c.Entries[0] = -2 }),
		"short matrix":       mutate(func(c *Columns) { c.Embs = c.Embs[:len(c.Embs)-1] }),
		"duplicate id":       mutate(func(c *Columns) { c.IDs[1] = c.IDs[0] }),
		"descending ids":     mutate(func(c *Columns) { c.IDs[1], c.IDs[2] = c.IDs[2], c.IDs[1] }),
	}
	for name, c := range cases {
		if _, err := FromColumns(c); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := FromColumns(base); err != nil {
		t.Errorf("valid columns rejected: %v", err)
	}
}
