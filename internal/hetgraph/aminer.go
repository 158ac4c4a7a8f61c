package hetgraph

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// ReadAminer parses the Aminer citation-network text format (the format
// of the paper's real Aminer/DBLP dumps, aminer.org/citation) into a
// heterogeneous graph. Each paper is a block of tagged lines:
//
//	#* title
//	#@ author1, author2, ...     (order defines the Zipf ranks)
//	#t year                      (ignored)
//	#c venue
//	#index id
//	#% id of a cited paper       (repeatable)
//	#! abstract                  (optional)
//
// Blocks are separated by blank lines. Citations may reference papers that
// appear later; they are resolved after the whole input is read, and
// references to unknown ids are dropped (the public dumps contain them).
// Topic nodes are not part of the format, so a graph read from it has
// the P-A-P and P-P meta-paths only.
func ReadAminer(r io.Reader) (*Graph, map[string]NodeID, error) {
	g := New()
	authors := map[string]NodeID{}
	venues := map[string]NodeID{}
	papersByKey := map[string]NodeID{}

	type pending struct {
		paper NodeID
		cites []string
	}
	var cites []pending

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)

	var (
		title, abstract, venue, index string
		authorList                    []string
		citedKeys                     []string
		sawAny                        bool
		line                          int
	)
	flush := func() error {
		if title == "" && index == "" && len(authorList) == 0 {
			return nil // empty block
		}
		if index == "" {
			return fmt.Errorf("hetgraph: aminer block ending at line %d has no #index", line)
		}
		if _, dup := papersByKey[index]; dup {
			return fmt.Errorf("hetgraph: duplicate paper index %q", index)
		}
		label := title
		if abstract != "" {
			label = title + ". " + abstract
		}
		p := g.AddNode(Paper, label)
		papersByKey[index] = p
		for _, name := range authorList {
			a, ok := authors[name]
			if !ok {
				a = g.AddNode(Author, name)
				authors[name] = a
			}
			// The format can repeat an author within one block; the simple
			// graph keeps the first occurrence (the better rank).
			if !containsID(g.Neighbors(p, Author), a) {
				g.MustAddEdge(a, p, Write)
			}
		}
		if venue != "" {
			v, ok := venues[venue]
			if !ok {
				v = g.AddNode(Venue, venue)
				venues[venue] = v
			}
			g.MustAddEdge(p, v, Publish)
		}
		if len(citedKeys) > 0 {
			cites = append(cites, pending{paper: p, cites: citedKeys})
		}
		title, abstract, venue, index = "", "", "", ""
		authorList, citedKeys = nil, nil
		return nil
	}

	for sc.Scan() {
		line++
		raw := strings.TrimRight(sc.Text(), "\r")
		if strings.TrimSpace(raw) == "" {
			if err := flush(); err != nil {
				return nil, nil, err
			}
			continue
		}
		sawAny = true
		tag, rest := splitAminerTag(raw)
		switch tag {
		case "#*":
			// Some dumps omit blank lines between records; a new title
			// while a block is in flight starts the next record.
			if index != "" || title != "" {
				if err := flush(); err != nil {
					return nil, nil, err
				}
			}
			title = rest
		case "#@":
			for _, name := range strings.Split(rest, ",") {
				if name = strings.TrimSpace(name); name != "" {
					authorList = append(authorList, name)
				}
			}
		case "#c":
			venue = rest
		case "#index":
			index = rest
		case "#%":
			if rest != "" {
				citedKeys = append(citedKeys, rest)
			}
		case "#!":
			abstract = rest
		case "#t", "#year":
			// Year: not represented in the schema.
		default:
			// Unknown tags (e.g. #conf variants) are skipped, matching the
			// tolerance the public dumps require.
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("hetgraph: aminer scan: %w", err)
	}
	if err := flush(); err != nil {
		return nil, nil, err
	}
	if !sawAny {
		return nil, nil, fmt.Errorf("hetgraph: empty aminer input")
	}

	// Resolve citations, dropping unknown targets and duplicates.
	for _, pc := range cites {
		for _, key := range pc.cites {
			q, ok := papersByKey[key]
			if !ok || q == pc.paper {
				continue
			}
			if !containsID(g.Neighbors(pc.paper, Paper), q) {
				g.MustAddEdge(pc.paper, q, Cite)
			}
		}
	}
	return g, papersByKey, nil
}

// splitAminerTag separates a tagged line into its tag and payload.
// "#index123" and "#index 123" are both accepted, as in the wild.
func splitAminerTag(s string) (tag, rest string) {
	for _, t := range []string{"#index", "#year", "#*", "#@", "#t", "#c", "#%", "#!"} {
		if strings.HasPrefix(s, t) {
			return t, strings.TrimSpace(s[len(t):])
		}
	}
	return "", strings.TrimSpace(s)
}

func containsID(ids []NodeID, x NodeID) bool {
	for _, id := range ids {
		if id == x {
			return true
		}
	}
	return false
}
