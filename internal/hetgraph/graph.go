// Package hetgraph implements the heterogeneous academic graph of the paper
// (Definition 1): typed nodes (Author, Paper, Venue, Topic), typed edges
// (Write, Publish, Mention, Cite), a textual label function L, plus the
// meta-path machinery (Definitions 3-4) used by the (k,P)-core search and
// the homogeneous projection used by the baselines.
//
// The graph is append-only: nodes and edges are added and never removed,
// matching the offline-build / online-query split of the paper. Reads are
// safe for concurrent use; a mutation after construction must exclude
// them, as core.Engine.AddPaper does under the engine's write lock.
package hetgraph

import (
	"fmt"
	"math/bits"
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

// Graph is a heterogeneous graph G = (V, E, L). Its adjacency is one
// column per neighbour node type, which makes meta-path hops O(degree of
// that type) without filtering.
type Graph struct {
	types  []NodeType
	labels []string
	cols   [numNodeTypes]column // cols[t] lists each node's type-t neighbours
	// edgeCount counts undirected edges, by type.
	edgeCount [numEdgeTypes]int
	// nodesByType indexes all nodes of each type, in insertion order.
	nodesByType [numNodeTypes][]NodeID
}

// column is a CSR pair: node u's list starts at off[u] in nbr, a length
// slot n and then the n neighbours in insertion order (for Paper→Author
// the paper's author list, whose order is the author rank I(a) of Eq. 5).
// Offset 0 is every empty list. A list owns n rounded up to a power of two
// slots: one that ends nbr grows in place, as a new paper's do; any other
// moves to the end when it doubles, as an author's paper list does, and a
// column the moves have left more than half dead is rewritten in node
// order. A slot a returned list covers is never written.
type column struct {
	off  []int32
	nbr  []NodeID
	dead int // slots of nbr no list owns
}

var maxColumn int64 = 1<<31 - 1 // every offset is an int32; a test lowers it

// New returns an empty heterogeneous graph.
func New() *Graph {
	g := &Graph{}
	for t := range g.cols {
		g.cols[t].nbr = []NodeID{0}
	}
	return g
}

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
	for c := range g.cols {
		g.cols[c].off = append(g.cols[c].off, 0)
	}
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
	if err := g.cols[tv].push(u, v); err != nil {
		return err
	}
	if err := g.cols[tu].push(v, u); err != nil {
		g.cols[tv].nbr[g.cols[tv].off[u]]-- // take v off u's list again
		return err
	}
	g.edgeCount[et]++
	return nil
}

// push appends v to u's list.
func (c *column) push(u, v NodeID) error {
	col, o := c.nbr, c.off[u]
	n := col[o]
	if n&(n-1) == 0 { // every slot taken: n is 0 or a power of two
		end, add := len(col), max(int(n), 1)
		move := n == 0 || int(o)+1+int(n) != end
		if move {
			add += 1 + int(n)
		}
		if int64(end)+int64(add) > maxColumn {
			return fmt.Errorf("hetgraph: node %d's list would pass %d slots", u, maxColumn)
		}
		col = append(col, make([]NodeID, add)...)
		if move {
			copy(col[end:], col[o:int(o)+1+int(n)])
			if n > 0 { // offset 0 stays every empty list's
				c.dead += 1 + int(n)
			}
			o, c.off[u] = int32(end), int32(end)
		}
		c.nbr = col
	}
	col[int(o)+1+int(n)] = v
	col[o] = n + 1
	if c.dead > len(col)/2 {
		c.compact()
	}
	return nil
}

// compact rewrites the column without its dead slots, in node order.
func (c *column) compact() {
	old := c.nbr
	col := make([]NodeID, 1, len(old)-c.dead)
	for u, o := range c.off {
		c.off[u] = 0
		if n := int(old[o]); n > 0 {
			c.off[u] = int32(len(col))
			col = append(col, old[o:int(o)+1+n]...)
			col = col[:len(col)+1<<bits.Len(uint(n-1))-n] // and its free slots
		}
	}
	c.nbr, c.dead = col, 0
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
func (g *Graph) Neighbors(u NodeID, t NodeType) []NodeID {
	c, o := &g.cols[t], g.cols[t].off[u]
	end := int(o) + 1 + int(c.nbr[o])
	return c.nbr[o+1 : end : end]
}

// AuthorsOf returns the ordered author list of a paper (rank 1 first).
// It panics if p is not a paper.
func (g *Graph) AuthorsOf(p NodeID) []NodeID {
	if g.types[p] != Paper {
		panic(fmt.Sprintf("hetgraph: AuthorsOf on non-paper node %d (%s)", p, g.types[p]))
	}
	return g.Neighbors(p, Author)
}

// PapersOf returns the papers authored by author a, in insertion order.
// It panics if a is not an author.
func (g *Graph) PapersOf(a NodeID) []NodeID {
	if g.types[a] != Author {
		panic(fmt.Sprintf("hetgraph: PapersOf on non-author node %d (%s)", a, g.types[a]))
	}
	return g.Neighbors(a, Paper)
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
