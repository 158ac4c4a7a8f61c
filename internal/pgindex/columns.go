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
// (FromColumns) — neither direction copies the big blocks. An index
// without a graph has nil NbrOff, NbrDat and Entries and a zero Nav.
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
	c := Columns{IDs: idx.ids}
	if idx.embs != nil {
		c.Dim = idx.embs.Cols
		c.Embs = idx.embs.Data
	}
	if !idx.graph {
		return c
	}
	c.Nav, c.Entries = idx.nav, idx.entries
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
// onto the heap instead of writing through the mapping. Nil NbrOff makes
// an index without a graph, and the other graph columns are ignored.
//
// All cross-column invariants are validated first (shape agreement,
// strictly ascending ids, CSR monotonicity, neighbour/nav/entry ranges),
// so a forged or damaged snapshot fails loudly here rather than faulting
// mid-search or ranking a paper twice.
func FromColumns(c Columns) (*Index, error) {
	n := len(c.IDs)
	embs, err := vec.Matrix32Of(n, c.Dim, c.Embs[:len(c.Embs):len(c.Embs)])
	if err != nil {
		return nil, fmt.Errorf("pgindex: columns: %d weights for %d x %d", len(c.Embs), n, c.Dim)
	}
	for i := 1; i < n; i++ {
		if c.IDs[i] <= c.IDs[i-1] {
			return nil, fmt.Errorf("pgindex: columns: id %d at row %d does not ascend past %d", c.IDs[i], i, c.IDs[i-1])
		}
	}
	idx := FromRows(c.IDs, embs)
	if c.NbrOff == nil {
		return idx, nil
	}
	if len(c.NbrOff) != n+1 {
		return nil, fmt.Errorf("pgindex: columns: %d CSR offsets for %d nodes", len(c.NbrOff), n)
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

	idx.graph, idx.nav, idx.entries = true, c.Nav, c.Entries
	idx.nbrs = make([][]int32, n)
	for i := 0; i < n; i++ {
		lo, hi := c.NbrOff[i], c.NbrOff[i+1]
		idx.nbrs[i] = c.NbrDat[lo:hi:hi]
	}
	return idx, nil
}
