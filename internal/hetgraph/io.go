package hetgraph

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// graphJSON is the serialised form of a Graph: a node list followed by an
// edge list, both in insertion order so the round trip preserves NodeIDs
// and author ranks.
type graphJSON struct {
	Nodes []nodeJSON `json:"nodes"`
	Edges []edgeJSON `json:"edges"`
}

type nodeJSON struct {
	Type  string `json:"type"`
	Label string `json:"label,omitempty"`
}

type edgeJSON struct {
	U    NodeID `json:"u"`
	V    NodeID `json:"v"`
	Type string `json:"t"`
}

// WriteJSON serialises g as JSON. The encoding preserves node insertion
// order (hence NodeIDs and paper author order) and edge insertion order.
func (g *Graph) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	doc := graphJSON{Nodes: make([]nodeJSON, g.NumNodes())}
	for i := range doc.Nodes {
		doc.Nodes[i] = nodeJSON{Type: g.types[i].String(), Label: g.labels[i]}
	}
	// Re-derive edges from adjacency, emitting each undirected edge once
	// FROM ITS PAPER ENDPOINT (every schema edge type touches a paper):
	// the reader appends neighbours in edge order, so walking each paper's
	// typed partitions reproduces its adjacency order exactly — in
	// particular the author list, whose positions are the Zipf
	// contribution ranks of expert scoring. Emitting from the lower
	// endpoint instead (authors usually precede papers in id order) would
	// rebuild author lists in author-id order and silently change every
	// loaded corpus's expert scores. Cite edges (paper-paper) are
	// deduplicated by emitting only towards the higher id.
	for u := range g.types {
		uid := NodeID(u)
		if g.types[uid] != Paper {
			continue
		}
		for t := NodeType(0); t < numNodeTypes; t++ {
			for _, v := range g.Neighbors(uid, t) {
				if g.types[v] == Paper && v < uid {
					continue // Cite edge, emitted from the lower paper
				}
				et, err := edgeTypeFor(g.types[uid], g.types[v])
				if err != nil {
					return err
				}
				doc.Edges = append(doc.Edges, edgeJSON{U: uid, V: v, Type: et.String()})
			}
		}
	}
	if err := enc.Encode(doc); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadJSON parses a graph previously written by WriteJSON.
func ReadJSON(r io.Reader) (*Graph, error) {
	var doc graphJSON
	if err := json.NewDecoder(bufio.NewReader(r)).Decode(&doc); err != nil {
		return nil, fmt.Errorf("hetgraph: decode: %w", err)
	}
	g := New()
	for _, n := range doc.Nodes {
		t, err := ParseNodeType(n.Type)
		if err != nil {
			return nil, err
		}
		g.AddNode(t, n.Label)
	}
	for _, e := range doc.Edges {
		et, err := parseEdgeType(e.Type)
		if err != nil {
			return nil, err
		}
		if err := g.AddEdge(e.U, e.V, et); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// edgeTypeFor returns the schema edge type joining two node types.
func edgeTypeFor(a, b NodeType) (EdgeType, error) {
	for et, want := range edgeSchema {
		if (want[0] == a && want[1] == b) || (want[0] == b && want[1] == a) {
			return EdgeType(et), nil
		}
	}
	return 0, fmt.Errorf("hetgraph: no edge type joins %s and %s", a, b)
}

func parseEdgeType(s string) (EdgeType, error) {
	switch s {
	case "Write":
		return Write, nil
	case "Publish":
		return Publish, nil
	case "Mention":
		return Mention, nil
	case "Cite":
		return Cite, nil
	default:
		return 0, fmt.Errorf("hetgraph: unknown edge type %q", s)
	}
}
