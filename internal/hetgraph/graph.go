// Package hetgraph implements the heterogeneous academic graph of the paper
// (Definition 1): typed nodes (Author, Paper, Venue, Topic), typed edges
// (Write, Publish, Mention, Cite), a textual label function L, plus the
// meta-path machinery (Definitions 3-4) used by the (k,P)-core search and
// the homogeneous projection used by the baselines.
//
// The graph is append-only: nodes and edges are added during construction
// and never removed, matching the offline-build / online-query split of the
// paper. All query methods are safe for concurrent use once construction is
// finished.
package hetgraph

import (
	"fmt"
)

// NodeType identifies the type φ(v) of a node (Definition 1).
type NodeType uint8

// The node types of the DBLP-style schema (Example 1).
const (
	Author NodeType = iota
	Paper
	Venue
	Topic
	numNodeTypes
)

// String returns the single-letter name used in meta-path notation
// (A, P, V, T).
func (t NodeType) String() string {
	switch t {
	case Author:
		return "A"
	case Paper:
		return "P"
	case Venue:
		return "V"
	case Topic:
		return "T"
	default:
		return fmt.Sprintf("NodeType(%d)", uint8(t))
	}
}

// ParseNodeType converts the single-letter meta-path notation back to a
// NodeType.
func ParseNodeType(s string) (NodeType, error) {
	switch s {
	case "A":
		return Author, nil
	case "P":
		return Paper, nil
	case "V":
		return Venue, nil
	case "T":
		return Topic, nil
	default:
		return 0, fmt.Errorf("hetgraph: unknown node type %q", s)
	}
}

// EdgeType identifies the type ψ(e) of an edge (Definition 1).
type EdgeType uint8

// The edge types of the DBLP-style schema.
const (
	Write   EdgeType = iota // Author - Paper
	Publish                 // Paper - Venue
	Mention                 // Paper - Topic
	Cite                    // Paper - Paper
	numEdgeTypes
)

// String returns the schema name of the edge type.
func (t EdgeType) String() string {
	switch t {
	case Write:
		return "Write"
	case Publish:
		return "Publish"
	case Mention:
		return "Mention"
	case Cite:
		return "Cite"
	default:
		return fmt.Sprintf("EdgeType(%d)", uint8(t))
	}
}

// NodeID indexes a node within a Graph. IDs are dense, assigned in
// insertion order starting from 0.
type NodeID int32

// Graph is a heterogeneous graph G = (V, E, L). Adjacency is partitioned by
// neighbour node type, which makes meta-path hops O(degree of that type)
// without filtering. Within one partition, neighbours keep insertion order;
// for Paper→Author this order is the paper's author list and defines the
// author rank I(a) used by the Zipf contribution weight (Eq. 5).
type Graph struct {
	types  []NodeType
	labels []string
	// adj[u][t] lists the neighbours of u having node type t.
	adj [][numNodeTypes][]NodeID
	// edgeCount counts undirected edges, by type.
	edgeCount [numEdgeTypes]int
	// nodesByType indexes all nodes of each type, in insertion order.
	nodesByType [numNodeTypes][]NodeID
}

// New returns an empty heterogeneous graph.
func New() *Graph { return &Graph{} }

// AddNode appends a node of type t with textual label L(v)=label and
// returns its id. For papers the label is title+abstract; for authors their
// name; venues and topics their names.
func (g *Graph) AddNode(t NodeType, label string) NodeID {
	if t >= numNodeTypes {
		panic(fmt.Sprintf("hetgraph: invalid node type %d", t))
	}
	id := NodeID(len(g.types))
	g.types = append(g.types, t)
	g.labels = append(g.labels, label)
	g.adj = append(g.adj, [numNodeTypes][]NodeID{})
	g.nodesByType[t] = append(g.nodesByType[t], id)
	return id
}

// edgeSchema gives the unordered endpoint types allowed for each edge type.
var edgeSchema = [numEdgeTypes][2]NodeType{
	Write:   {Author, Paper},
	Publish: {Paper, Venue},
	Mention: {Paper, Topic},
	Cite:    {Paper, Paper},
}

// AddEdge adds an undirected edge of type et between u and v. The edge is
// validated against the schema (Definition 2): Write joins Author-Paper,
// Publish joins Paper-Venue, Mention joins Paper-Topic, Cite joins
// Paper-Paper. Citation direction is not preserved because the paper's P-P
// meta-path treats "cites or is cited by" symmetrically.
func (g *Graph) AddEdge(u, v NodeID, et EdgeType) error {
	if et >= numEdgeTypes {
		return fmt.Errorf("hetgraph: invalid edge type %d", et)
	}
	if err := g.checkNode(u); err != nil {
		return err
	}
	if err := g.checkNode(v); err != nil {
		return err
	}
	tu, tv := g.types[u], g.types[v]
	want := edgeSchema[et]
	if !(tu == want[0] && tv == want[1]) && !(tu == want[1] && tv == want[0]) {
		return fmt.Errorf("hetgraph: edge %s cannot join %s and %s", et, tu, tv)
	}
	if u == v {
		return fmt.Errorf("hetgraph: self edge on node %d", u)
	}
	g.adj[u][tv] = append(g.adj[u][tv], v)
	g.adj[v][tu] = append(g.adj[v][tu], u)
	g.edgeCount[et]++
	return nil
}

// MustAddEdge is AddEdge that panics on schema violations; it is intended
// for generators and tests where edges are constructed programmatically.
func (g *Graph) MustAddEdge(u, v NodeID, et EdgeType) {
	if err := g.AddEdge(u, v, et); err != nil {
		panic(err)
	}
}

func (g *Graph) checkNode(u NodeID) error {
	if u < 0 || int(u) >= len(g.types) {
		return fmt.Errorf("hetgraph: node %d out of range [0,%d)", u, len(g.types))
	}
	return nil
}

// NumNodes returns |V|.
func (g *Graph) NumNodes() int { return len(g.types) }

// NumEdges returns the total number of undirected edges |E|.
func (g *Graph) NumEdges() int {
	n := 0
	for _, c := range g.edgeCount {
		n += c
	}
	return n
}

// Type returns φ(u).
func (g *Graph) Type(u NodeID) NodeType { return g.types[u] }

// Label returns L(u).
func (g *Graph) Label(u NodeID) string { return g.labels[u] }

// NodesOfType returns all nodes with type t in insertion order. The
// returned slice is owned by the graph and must not be modified.
func (g *Graph) NodesOfType(t NodeType) []NodeID { return g.nodesByType[t] }

// NumNodesOfType returns the number of nodes with type t.
func (g *Graph) NumNodesOfType(t NodeType) int { return len(g.nodesByType[t]) }

// Neighbors returns the neighbours of u having node type t, in insertion
// order. The returned slice is owned by the graph and must not be modified.
// For a paper node and t == Author, the order is the paper's author list.
func (g *Graph) Neighbors(u NodeID, t NodeType) []NodeID { return g.adj[u][t] }

// AuthorsOf returns the ordered author list of a paper (rank 1 first).
// It panics if p is not a paper.
func (g *Graph) AuthorsOf(p NodeID) []NodeID {
	if g.types[p] != Paper {
		panic(fmt.Sprintf("hetgraph: AuthorsOf on non-paper node %d (%s)", p, g.types[p]))
	}
	return g.adj[p][Author]
}

// PapersOf returns the papers authored by author a, in insertion order.
// It panics if a is not an author.
func (g *Graph) PapersOf(a NodeID) []NodeID {
	if g.types[a] != Author {
		panic(fmt.Sprintf("hetgraph: PapersOf on non-author node %d (%s)", a, g.types[a]))
	}
	return g.adj[a][Paper]
}

// Stats summarises the graph in the shape of the paper's Table I.
type Stats struct {
	Papers, Experts, Venues, Topics, Relations int
}

// Stats returns Table I-style counts for the graph.
func (g *Graph) Stats() Stats {
	return Stats{
		Papers:    g.NumNodesOfType(Paper),
		Experts:   g.NumNodesOfType(Author),
		Venues:    g.NumNodesOfType(Venue),
		Topics:    g.NumNodesOfType(Topic),
		Relations: g.NumEdges(),
	}
}
