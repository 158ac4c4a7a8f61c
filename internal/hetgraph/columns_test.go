package hetgraph

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// oracle is the naive form of a Graph: every node's neighbour lists by
// type as plain slices, plus what the graph counts.
type oracle struct {
	types  []NodeType
	labels []string
	adj    map[NodeID][numNodeTypes][]NodeID
	edges  int
}

func (o *oracle) addNode(t NodeType, label string) {
	o.types = append(o.types, t)
	o.labels = append(o.labels, label)
}

// addEdge adds the edge if Definition 2's schema allows it and reports
// whether it did.
func (o *oracle) addEdge(u, v NodeID, et EdgeType) bool {
	n := NodeID(len(o.types))
	if et >= numEdgeTypes || u < 0 || u >= n || v < 0 || v >= n || u == v {
		return false
	}
	tu, tv, want := o.types[u], o.types[v], edgeSchema[et]
	if !(tu == want[0] && tv == want[1]) && !(tu == want[1] && tv == want[0]) {
		return false
	}
	lu := o.adj[u]
	lu[tv] = append(lu[tv], v)
	o.adj[u] = lu
	lv := o.adj[v]
	lv[tu] = append(lv[tu], u)
	o.adj[v] = lv
	o.edges++
	return true
}

// json is what WriteJSON must write for the oracle's graph: nodes in id
// order, then every edge from its paper endpoint, each Cite once.
func (o *oracle) json(t *testing.T) []byte {
	doc := graphJSON{Nodes: make([]nodeJSON, len(o.types))}
	for i, nt := range o.types {
		doc.Nodes[i] = nodeJSON{Type: nt.String(), Label: o.labels[i]}
	}
	for u, nt := range o.types {
		if nt != Paper {
			continue
		}
		for typ, l := range o.adj[NodeID(u)] {
			et, _ := edgeTypeFor(Paper, NodeType(typ))
			for _, v := range l {
				if typ != int(Paper) || v > NodeID(u) {
					doc.Edges = append(doc.Edges, edgeJSON{U: NodeID(u), V: v, Type: et.String()})
				}
			}
		}
	}
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(doc); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// held is a list the graph returned earlier, with what it held then.
type held struct{ got, want []NodeID }

// check compares every read of g with the oracle, appends to each list it
// was given (which must change nothing the next check reads), and checks
// that no list returned before has changed since.
func check(t *testing.T, step int, g *Graph, o *oracle, hold []held) {
	t.Helper()
	if g.NumNodes() != len(o.types) || g.NumEdges() != o.edges {
		t.Fatalf("step %d: %d nodes and %d edges, want %d and %d", step, g.NumNodes(), g.NumEdges(), len(o.types), o.edges)
	}
	var byType [numNodeTypes][]NodeID
	for u, nt := range o.types {
		id := NodeID(u)
		byType[nt] = append(byType[nt], id)
		if g.Type(id) != nt || g.Label(id) != o.labels[u] {
			t.Fatalf("step %d: node %d is %s %q, want %s %q", step, u, g.Type(id), g.Label(id), nt, o.labels[u])
		}
		for typ := NodeType(0); typ < numNodeTypes; typ++ {
			got, want := g.Neighbors(id, typ), o.adj[id][typ]
			if !slices.Equal(got, want) || cap(got) != len(got) {
				t.Fatalf("step %d: node %d's %s neighbours %v (cap %d), want %v", step, u, typ, got, cap(got), want)
			}
			_ = append(got, -1)
		}
		switch nt {
		case Paper:
			if !slices.Equal(g.AuthorsOf(id), o.adj[id][Author]) {
				t.Fatalf("step %d: AuthorsOf(%d) = %v", step, u, g.AuthorsOf(id))
			}
		case Author:
			if !slices.Equal(g.PapersOf(id), o.adj[id][Paper]) {
				t.Fatalf("step %d: PapersOf(%d) = %v", step, u, g.PapersOf(id))
			}
		}
	}
	for nt := range byType {
		if !slices.Equal(g.NodesOfType(NodeType(nt)), byType[nt]) {
			t.Fatalf("step %d: NodesOfType(%s) = %v, want %v", step, NodeType(nt), g.NodesOfType(NodeType(nt)), byType[nt])
		}
	}
	for _, h := range hold {
		if !slices.Equal(h.got, h.want) {
			t.Fatalf("step %d: a list returned earlier changed to %v from %v", step, h.got, h.want)
		}
	}
}

// construct adds the same random corpus to g and o: authors, venues and
// topics, then 200 papers. Without citations, few small lists offset the
// dead slots the authors' moves leave, so the Paper column is usually
// compacted on the way.
func construct(g *Graph, o *oracle, rng *rand.Rand) {
	for nt, n := range [...]int{Author: 48, Venue: 8, Topic: 8} {
		for i := 0; i < n; i++ {
			label := fmt.Sprintf("%s%d", NodeType(nt), i)
			o.addNode(NodeType(nt), label)
			g.AddNode(NodeType(nt), label)
		}
	}
	addPapers(g, o, rng, 200)
}

// addPapers adds n papers to g and o, each with 1-4 authors, a venue and
// a topic, as AddPaper does.
func addPapers(g *Graph, o *oracle, rng *rand.Rand, n int) {
	authors, venues, topics := g.NodesOfType(Author), g.NodesOfType(Venue), g.NodesOfType(Topic)
	for i := 0; i < n; i++ {
		p := g.AddNode(Paper, "")
		o.addNode(Paper, "")
		for _, k := range rng.Perm(len(authors))[:1+rng.Intn(4)] {
			o.addEdge(authors[k], p, Write)
			g.MustAddEdge(authors[k], p, Write)
		}
		v, tp := venues[rng.Intn(len(venues))], topics[rng.Intn(len(topics))]
		o.addEdge(p, v, Publish)
		g.MustAddEdge(p, v, Publish)
		o.addEdge(p, tp, Mention)
		g.MustAddEdge(p, tp, Mention)
	}
}

// TestCompactionKeepsReturnedLists: a compaction rewrites a column into a
// new array, so every list returned before it still reads as it did, and
// every read after it matches the oracle.
func TestCompactionKeepsReturnedLists(t *testing.T) {
	g, o := New(), &oracle{adj: map[NodeID][numNodeTypes][]NodeID{}}
	rng := rand.New(rand.NewSource(1))
	construct(g, o, rng)
	var hold []held
	for u := NodeID(0); int(u) < g.NumNodes(); u++ {
		for nt := NodeType(0); nt < numNodeTypes; nt++ {
			got := g.Neighbors(u, nt)
			hold = append(hold, held{got, slices.Clone(got)})
		}
	}
	for i := 0; ; i++ {
		dead := g.cols[Paper].dead
		addPapers(g, o, rng, 1)
		if g.cols[Paper].dead < dead {
			break
		}
		if i == 10000 {
			t.Fatal("10000 papers and the Paper column was never compacted")
		}
	}
	check(t, 0, g, o, hold)
}

// FuzzGraphOps runs an interleaved sequence of AddNode and AddEdge calls,
// valid and invalid, and AddPaper-shaped growth, optionally after a large
// construction, checking every read of the graph against the oracle after
// each step and WriteJSON's bytes after the last.
//
// The first byte picks the construction (odd: 200 papers, seeded by it);
// each following three bytes (op, x, y) are one step. x and y name a node
// in proportion to the node count, 254 and 255 an id out of range.
func FuzzGraphOps(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 1, 0, 2, 0, 1})
	f.Add([]byte{1, 5, 3, 9, 21, 40, 200, 6, 7, 1, 2, 10, 250, 3, 255, 12})
	f.Add([]byte{3, 13, 0, 0, 5, 80, 90, 6, 255, 3, 0, 1, 2, 44, 100, 101, 7, 30, 31})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 600 {
			return
		}
		g, o := New(), &oracle{adj: map[NodeID][numNodeTypes][]NodeID{}}
		if data[0]&1 == 1 {
			construct(g, o, rand.New(rand.NewSource(int64(data[0]))))
		}
		var hold []held
		check(t, 0, g, o, hold)
		id := func(x byte) NodeID {
			switch x {
			case 254:
				return -1
			case 255:
				return NodeID(g.NumNodes())
			}
			return NodeID(int(x) * g.NumNodes() / 254)
		}
		for i, step := 1, 1; i+2 < len(data); i, step = i+3, step+1 {
			op, x, y := data[i], data[i+1], data[i+2]
			switch op % 8 {
			case 0, 1: // AddNode, an invalid type when op%8 is 1
				nt := NodeType(x%4) + NodeType(op%8)*numNodeTypes
				label := fmt.Sprint(y)
				func() {
					defer func() {
						if r := recover(); (r != nil) != (nt >= numNodeTypes) {
							t.Fatalf("step %d: AddNode(%d) panicked with %v", step, nt, r)
						}
					}()
					g.AddNode(nt, label)
					o.addNode(nt, label)
				}()
			case 2, 3, 4: // AddEdge, of an invalid type when op>>3%5 is 4
				u, v, et := id(x), id(y), EdgeType(op>>3%5)
				if ok := o.addEdge(u, v, et); (g.AddEdge(u, v, et) == nil) != ok {
					t.Fatalf("step %d: AddEdge(%d, %d, %s) accepted %v, want %v", step, u, v, et, !ok, ok)
				}
			case 5, 6: // AddPaper-shaped: a paper, its authors, venue, topic, citation
				p := NodeID(g.NumNodes())
				g.AddNode(Paper, "")
				o.addNode(Paper, "")
				for nt, k := range [...]int{Author: 1 + int(x%4), Paper: int(y % 2), Venue: 1, Topic: 1} {
					nodes := g.NodesOfType(NodeType(nt))
					for j := 0; j < k && len(nodes) > 1; j++ {
						v := nodes[(int(y)+7*j)%len(nodes)]
						if v == p {
							continue
						}
						et, _ := edgeTypeFor(Paper, NodeType(nt))
						if !o.addEdge(v, p, et) || g.AddEdge(v, p, et) != nil {
							t.Fatalf("step %d: AddEdge(%d, %d, %s) refused", step, v, p, et)
						}
					}
				}
			case 7: // hold a list while the graph grows
				if u := id(x); u >= 0 && int(u) < g.NumNodes() && len(hold) < 16 {
					got := g.Neighbors(u, NodeType(y%4))
					hold = append(hold, held{got, slices.Clone(got)})
				}
			}
			check(t, step, g, o, hold)
		}
		var b bytes.Buffer
		if err := g.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		if want := o.json(t); !bytes.Equal(b.Bytes(), want) {
			t.Fatalf("WriteJSON wrote\n%s\nwant\n%s", b.Bytes(), want)
		}
	})
}

// TestColumnLimit: growth that would take a column past maxColumn slots,
// the int32 offset limit, is refused before anything wraps, including the
// half of an edge already added to its other column, and the graph is as
// it was. The test lowers the limit rather than filling 2³¹ slots.
func TestColumnLimit(t *testing.T) {
	defer func(m int64) { maxColumn = m }(maxColumn)
	g := New()
	p, q := g.AddNode(Paper, ""), g.AddNode(Paper, "")
	for i := 0; i < 6; i++ {
		g.MustAddEdge(g.AddNode(Author, ""), p, Write)
	}
	g.MustAddEdge(p, q, Cite)
	v := g.AddNode(Venue, "")
	var before bytes.Buffer
	g.WriteJSON(&before)

	// p's venue list fits its column; v's paper list, 2 more slots, does not.
	maxColumn = int64(len(g.cols[Paper].nbr)) + 1
	if len(g.cols[Venue].nbr)+2 > int(maxColumn) {
		t.Fatalf("the venue column (%d slots) should have room under the limit %d", len(g.cols[Venue].nbr), maxColumn)
	}
	if err := g.AddEdge(p, v, Publish); err == nil {
		t.Fatal("AddEdge past the column limit succeeded")
	}
	var after bytes.Buffer
	g.WriteJSON(&after)
	if !bytes.Equal(before.Bytes(), after.Bytes()) || g.NumEdges() != 7 ||
		len(g.Neighbors(p, Venue)) != 0 || len(g.Neighbors(v, Paper)) != 0 {
		t.Fatalf("a refused edge changed the graph:\n%s\nwas\n%s", after.Bytes(), before.Bytes())
	}
	for c := range g.cols {
		for u, o := range g.cols[c].off {
			if o < 0 || int(o) >= len(g.cols[c].nbr) {
				t.Fatalf("node %d's %s offset is %d", u, NodeType(c), o)
			}
		}
	}

	maxColumn = 1<<31 - 1
	g.MustAddEdge(p, v, Publish)
	if !slices.Equal(g.Neighbors(p, Venue), []NodeID{v}) || !slices.Equal(g.Neighbors(v, Paper), []NodeID{p}) {
		t.Fatalf("after the refusal, p's venues are %v and v's papers %v", g.Neighbors(p, Venue), g.Neighbors(v, Paper))
	}
}
