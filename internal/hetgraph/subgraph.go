package hetgraph

import "fmt"

// InducedSubgraph returns the subgraph of g induced by keeping the given
// papers plus every author, venue and topic adjacent to them, with all
// edges among the kept nodes. Node ids are renumbered densely; the mapping
// from old to new ids is returned alongside. Author order on papers (and
// hence Zipf ranks) is preserved.
//
// Table VI extracts shrinking subgraphs G1..G4 from the original corpus
// this way, as the paper does, instead of generating smaller corpora.
func InducedSubgraph(g *Graph, papers []NodeID) (*Graph, map[NodeID]NodeID, error) {
	keep := map[NodeID]bool{}
	for _, p := range papers {
		if err := g.checkNode(p); err != nil {
			return nil, nil, err
		}
		if g.Type(p) != Paper {
			return nil, nil, fmt.Errorf("hetgraph: induced subgraph seed %d is a %s, not a paper", p, g.Type(p))
		}
		keep[p] = true
	}
	// Pull in the neighbourhood of the kept papers.
	for _, p := range papers {
		for _, t := range []NodeType{Author, Venue, Topic} {
			for _, v := range g.Neighbors(p, t) {
				keep[v] = true
			}
		}
	}

	// Renumber in original insertion order so determinism carries over.
	sub := New()
	mapping := make(map[NodeID]NodeID, len(keep))
	for old := NodeID(0); int(old) < g.NumNodes(); old++ {
		if keep[old] {
			mapping[old] = sub.AddNode(g.Type(old), g.Label(old))
		}
	}

	// Copy edges among kept nodes, each exactly once, always emitting from
	// the paper side: for Write edges this walks the paper's author list
	// in order, preserving Zipf ranks. Cite edges (paper-paper) are
	// deduplicated by emitting only towards higher ids.
	for old := NodeID(0); int(old) < g.NumNodes(); old++ {
		if !keep[old] || g.Type(old) != Paper {
			continue
		}
		for t := NodeType(0); t < numNodeTypes; t++ {
			et, _ := edgeTypeFor(Paper, t) // every node type has one
			for _, v := range g.Neighbors(old, t) {
				if !keep[v] || (t == Paper && v < old) {
					continue
				}
				if err := sub.AddEdge(mapping[old], mapping[v], et); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	return sub, mapping, nil
}
