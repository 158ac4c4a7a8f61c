package hetgraph

import (
	"fmt"
	"strings"
)

// MetaPath is a path on the schema (Definition 3), written with node types
// only (the edge type between two node types is unambiguous in the DBLP
// schema). The paper's three paper-paper meta-paths are PAP (co-authorship),
// PTP (same topic) and PP (citation).
type MetaPath struct {
	types []NodeType
	name  string
}

// Predefined paper-paper meta-paths used throughout the paper.
var (
	PAP = MustParseMetaPath("P-A-P") // co-authorship
	PTP = MustParseMetaPath("P-T-P") // same topic
	PP  = MustParseMetaPath("P-P")   // citation (either direction)
)

// ParseMetaPath parses notation such as "P-A-P" into a MetaPath. A valid
// meta-path has at least two node types, and each consecutive pair must be
// joinable under the schema.
func ParseMetaPath(s string) (MetaPath, error) {
	parts := strings.Split(s, "-")
	if len(parts) < 2 {
		return MetaPath{}, fmt.Errorf("hetgraph: meta-path %q needs at least 2 node types", s)
	}
	types := make([]NodeType, len(parts))
	for i, p := range parts {
		t, err := ParseNodeType(strings.TrimSpace(p))
		if err != nil {
			return MetaPath{}, err
		}
		types[i] = t
	}
	for i := 0; i+1 < len(types); i++ {
		if !schemaJoinable(types[i], types[i+1]) {
			return MetaPath{}, fmt.Errorf("hetgraph: meta-path %q has no edge type joining %s-%s",
				s, types[i], types[i+1])
		}
	}
	return MetaPath{types: types, name: strings.Join(parts, "-")}, nil
}

// MustParseMetaPath is ParseMetaPath that panics on error; for package-level
// constants and tests.
func MustParseMetaPath(s string) MetaPath {
	mp, err := ParseMetaPath(s)
	if err != nil {
		panic(err)
	}
	return mp
}

func schemaJoinable(a, b NodeType) bool {
	for _, want := range edgeSchema {
		if (want[0] == a && want[1] == b) || (want[0] == b && want[1] == a) {
			return true
		}
	}
	return false
}

// String returns the "P-A-P" notation of the meta-path.
func (mp MetaPath) String() string { return mp.name }

// Len returns the number of hops l (a meta-path A1-...-A(l+1) has l hops).
func (mp MetaPath) Len() int { return len(mp.types) - 1 }

// Source returns the first node type of the meta-path.
func (mp MetaPath) Source() NodeType { return mp.types[0] }

// Target returns the last node type of the meta-path.
func (mp MetaPath) Target() NodeType { return mp.types[len(mp.types)-1] }

// IsPaperPaper reports whether the meta-path joins papers to papers, the
// only shape the (k,P)-core definition uses.
func (mp MetaPath) IsPaperPaper() bool { return mp.Source() == Paper && mp.Target() == Paper }

// IsSymmetric reports whether the meta-path reads the same in both
// directions (P-A-P, P-T-P, P-P), which makes the P-neighbour relation
// symmetric: the projection along mp is then an undirected graph.
func (mp MetaPath) IsSymmetric() bool {
	for i, j := 0, len(mp.types)-1; i < j; i, j = i+1, j-1 {
		if mp.types[i] != mp.types[j] {
			return false
		}
	}
	return true
}

// ForEachPNeighbor calls fn once for every distinct P-neighbour of u via
// mp (Definition 4): every node v != u reachable from u by a path instance
// of mp. Iteration stops early if fn returns false. The visit order is
// deterministic for a given graph.
//
// The expansion is a layered walk: frontier_0 = {u}; frontier_{i+1} is the
// set of type-A_{i+1} neighbours of frontier_i, deduplicated per layer so a
// node is expanded once per hop even when reachable via many instances.
func (g *Graph) ForEachPNeighbor(u NodeID, mp MetaPath, fn func(v NodeID) bool) {
	if g.Type(u) != mp.Source() {
		panic(fmt.Sprintf("hetgraph: node %d has type %s, meta-path %s starts at %s",
			u, g.Type(u), mp, mp.Source()))
	}
	frontier := []NodeID{u}
	seen := map[NodeID]bool{}
	for hop := 1; hop <= mp.Len(); hop++ {
		next := frontier[:0:0]
		clear(seen)
		last := hop == mp.Len()
		for _, x := range frontier {
			for _, y := range g.Neighbors(x, mp.types[hop]) {
				if seen[y] || (last && y == u) {
					continue
				}
				seen[y] = true
				if last {
					if !fn(y) {
						return
					}
				} else {
					next = append(next, y)
				}
			}
		}
		frontier = next
	}
}

// PNeighbors returns the distinct P-neighbours of u via mp as a slice.
func (g *Graph) PNeighbors(u NodeID, mp MetaPath) []NodeID {
	var out []NodeID
	g.ForEachPNeighbor(u, mp, func(v NodeID) bool {
		out = append(out, v)
		return true
	})
	return out
}
