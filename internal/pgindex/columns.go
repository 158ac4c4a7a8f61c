package pgindex

import (
	"fmt"

	"expertfind/internal/hetgraph"
	"expertfind/internal/vec"
)

// Columns is the flat, fixed-width decomposition of an Index — the form
// the columnar snapshot store persists. Adjacency is CSR (NbrOff[i] to
// NbrOff[i+1] index NbrDat); the embedding matrix is one row-major
// float32 block. Every slice is either a save-time view of live index
// storage (Columns) or, on load, may alias a read-only mmap'd snapshot
// (FromColumns) — neither direction copies the big blocks.
type Columns struct {
	IDs     []hetgraph.NodeID
	Dim     int
	Embs    []float32 // row-major, len(IDs) x Dim
	NbrOff  []uint64  // len(IDs)+1 CSR offsets into NbrDat
	NbrDat  []int32   // concatenated out-neighbour lists
	Nav     int32
	Entries []int32
}

// Columns decomposes the index into its columnar form. The embedding, id
// and entry slices are views of live index storage (valid while the index
// is not mutated); adjacency is flattened into a fresh CSR pair.
func (idx *Index) Columns() Columns {
	c := Columns{
		IDs:     idx.ids,
		Nav:     idx.nav,
		Entries: idx.entries,
	}
	if idx.embs != nil {
		c.Dim = idx.embs.Cols
		c.Embs = idx.embs.Data
	}
	c.NbrOff = make([]uint64, len(idx.nbrs)+1)
	total := 0
	for i, nb := range idx.nbrs {
		total += len(nb)
		c.NbrOff[i+1] = uint64(total)
	}
	c.NbrDat = make([]int32, 0, total)
	for _, nb := range idx.nbrs {
		c.NbrDat = append(c.NbrDat, nb...)
	}
	return c
}

// FromColumns reconstructs an Index from its columnar form without
// copying the large blocks: the embedding matrix adopts c.Embs and each
// adjacency list is a full-capacity sub-slice of c.NbrDat. Because the
// blocks may alias a read-only mapping, every view is capped at its
// length — an insert that appends to a list or the matrix reallocates
// onto the heap instead of writing through the mapping.
//
// All cross-column invariants are validated first (shape agreement, CSR
// monotonicity, neighbour/nav/entry ranges), so a forged or damaged
// snapshot fails loudly here rather than faulting mid-search.
func FromColumns(c Columns) (*Index, error) {
	n := len(c.IDs)
	if len(c.NbrOff) != n+1 {
		return nil, fmt.Errorf("pgindex: columns: %d CSR offsets for %d nodes", len(c.NbrOff), n)
	}
	if c.Dim < 0 || len(c.Embs) != n*c.Dim {
		return nil, fmt.Errorf("pgindex: columns: %d weights for %d x %d", len(c.Embs), n, c.Dim)
	}
	if c.NbrOff[0] != 0 || c.NbrOff[n] != uint64(len(c.NbrDat)) {
		return nil, fmt.Errorf("pgindex: columns: CSR ends [%d, %d] do not span %d edges",
			c.NbrOff[0], c.NbrOff[n], len(c.NbrDat))
	}
	for i := 0; i < n; i++ {
		if c.NbrOff[i] > c.NbrOff[i+1] {
			return nil, fmt.Errorf("pgindex: columns: CSR offset %d decreases at node %d", c.NbrOff[i+1], i)
		}
	}
	for i, nb := range c.NbrDat {
		if nb < 0 || int(nb) >= n {
			return nil, fmt.Errorf("pgindex: columns: out-of-range neighbour %d at edge %d", nb, i)
		}
	}
	if n > 0 && (c.Nav < 0 || int(c.Nav) >= n) {
		return nil, fmt.Errorf("pgindex: columns: navigating node %d out of range", c.Nav)
	}
	for _, e := range c.Entries {
		if e < 0 || int(e) >= n {
			return nil, fmt.Errorf("pgindex: columns: entry point %d out of range", e)
		}
	}

	idx := &Index{
		ids:     c.IDs,
		nav:     c.Nav,
		entries: c.Entries,
		pos:     make(map[hetgraph.NodeID]int32, n),
	}
	if n > 0 {
		idx.embs = &vec.Matrix32{Rows: n, Cols: c.Dim, Data: c.Embs}
	}
	idx.nbrs = make([][]int32, n)
	for i := 0; i < n; i++ {
		lo, hi := c.NbrOff[i], c.NbrOff[i+1]
		idx.nbrs[i] = c.NbrDat[lo:hi:hi]
	}
	for i, id := range c.IDs {
		idx.pos[id] = int32(i)
	}
	return idx, nil
}
