// Package dataset generates synthetic heterogeneous academic networks that
// stand in for the Aminer, DBLP and ACM dumps of §VI-A (see DESIGN.md for
// the substitution rationale). The generator plants exactly the structure
// the paper's method exploits:
//
//   - research groups: clusters of authors in one topic who co-author many
//     papers, producing dense P-A-P (k,P)-cores;
//   - topic-conditioned text: each topic has its own lexicon, so papers on
//     the same topic are lexically similar (the signal text-only baselines
//     use) while co-authored papers are even more similar;
//   - intra-topic citation bias and topic-aligned venues, giving the P-P
//     and P-T-P meta-paths real signal and the venue relation the noise
//     that Figure 1(a) warns about;
//   - interdisciplinary authors who publish in two topics, the §V failure
//     mode that makes P-A-P ∩ P-T-P beat P-A-P alone.
//
// Everything is driven by a single seed; the same Config generates the
// same dataset bit-for-bit.
package dataset

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"

	"expertfind/internal/hetgraph"
)

// Config parameterises dataset generation.
type Config struct {
	Name string
	Seed int64

	NumPapers int
	NumTopics int
	// GroupSize is the number of authors in one research group; papers are
	// authored by subsets of a group.
	GroupSizeMin, GroupSizeMax int
	// PapersPerGroup sets how many papers each group produces on average;
	// it controls co-authorship density and hence (k,P)-core sizes.
	PapersPerGroup int
	// AuthorsPerPaper bounds the author-list length.
	AuthorsPerPaperMin, AuthorsPerPaperMax int
	// VenuesPerTopic is the number of venues mainly publishing each topic.
	VenuesPerTopic int
	// InterdisciplinaryFrac is the fraction of groups that also publish in
	// a secondary topic.
	InterdisciplinaryFrac float64
	// CitesMax bounds citations per paper. OwnGroupCiteProb is the
	// probability a citation targets an earlier paper of the same research
	// group (self-citation keeps the citation (k,P)-core group-local); the
	// remaining citations stay within the paper's topic. Cross-topic
	// citation arises only through interdisciplinary groups citing their
	// own work — uniformly random cross-topic citations would glue every
	// topic's citation core into one giant component, a degeneracy of
	// component-based community search the paper's corpora do not show.
	CitesMax         int
	OwnGroupCiteProb float64
	// RandomCiteProb is the probability a citation targets an arbitrary
	// earlier paper (default 0.12) — the "less-relevant" citations §VI-B
	// blames for P-P being the weakest single meta-path.
	RandomCiteProb float64
	// SecondaryMentionProb is the probability a paper mentions a second
	// topic. It defaults to 0: even a single two-topic paper with k
	// same-topic neighbours on each side glues both topics into one
	// (k,P-T-P)-core component, collapsing every same-topic community
	// into the whole corpus. Interdisciplinarity is instead modelled by
	// groups publishing papers in two topics (InterdisciplinaryFrac).
	SecondaryMentionProb float64
	// TopicWordFrac is the fraction of a paper's words drawn from its
	// topic lexicon (the rest come from the shared lexicon).
	TopicWordFrac float64
	// TitleWords and AbstractWords size the generated texts.
	TitleWords, AbstractWords int
	// TopicLexicon and CommonLexicon size the vocabularies.
	TopicLexicon, CommonLexicon int
	// TopicOverlapFrac is the fraction of each topic's lexicon shared with
	// the next topic (ring order). Overlap makes adjacent topics lexically
	// confusable, so purely textual methods mix them up while structural
	// relationships still separate them — the paper's central premise.
	TopicOverlapFrac float64
	// TopicLabelNoise is the probability a paper's Mention edge points at
	// a wrong topic (default 0.08), modelling noisy automatic topic
	// tagging. The paper's text, venue, authors and ground truth follow
	// the true topic; only the label lies. P-T-P-only communities inherit
	// this noise, which is what the P-A-P ∩ P-T-P intersection filters
	// out (§V).
	TopicLabelNoise float64
	// Dialects is the number of surface-form variants per topic stem
	// (default 3). Each paper is written in one dialect: the same stem
	// appears as stem, stem+"ation", stem+"izer", ... simulating the
	// synonymy/inflection of real scientific text. Word-level methods see
	// dialects as disjoint vocabularies; subword methods recognise the
	// shared stems.
	Dialects int
}

// dialectSuffixes supplies the per-dialect surface suffixes; dialect 0 is
// the base form.
var dialectSuffixes = []string{"", "ation", "izer", "ology", "istic", "ment"}

// inflections vary each topic-word occurrence (plural, adjectival, past
// forms), so even two papers of the same dialect rarely share a stem's
// exact surface form — the morphological variance of real text that
// word-level exact matching loses and subword stems survive.
var inflections = []string{"", "s", "ed", "ique"}

func (c Config) withDefaults() Config {
	def := func(v *int, d int) {
		if *v <= 0 {
			*v = d
		}
	}
	def(&c.NumPapers, 1000)
	def(&c.NumTopics, 7)
	def(&c.GroupSizeMin, 4)
	def(&c.GroupSizeMax, 8)
	def(&c.PapersPerGroup, 12)
	def(&c.AuthorsPerPaperMin, 2)
	def(&c.AuthorsPerPaperMax, 4)
	def(&c.VenuesPerTopic, 3)
	def(&c.CitesMax, 6)
	def(&c.TitleWords, 8)
	def(&c.AbstractWords, 60)
	def(&c.TopicLexicon, 120)
	def(&c.CommonLexicon, 400)
	if c.InterdisciplinaryFrac <= 0 {
		c.InterdisciplinaryFrac = 0.25
	}
	if c.OwnGroupCiteProb <= 0 {
		c.OwnGroupCiteProb = 0.6
	}
	if c.RandomCiteProb <= 0 {
		c.RandomCiteProb = 0.12
	}
	if c.TopicWordFrac <= 0 {
		c.TopicWordFrac = 0.3
	}
	if c.TopicOverlapFrac <= 0 {
		c.TopicOverlapFrac = 0.45
	}
	if c.TopicLabelNoise <= 0 {
		c.TopicLabelNoise = 0.08
	}
	if c.Dialects <= 0 {
		c.Dialects = 3
	}
	if c.Dialects > len(dialectSuffixes) {
		c.Dialects = len(dialectSuffixes)
	}
	if c.AuthorsPerPaperMax < c.AuthorsPerPaperMin {
		c.AuthorsPerPaperMax = c.AuthorsPerPaperMin
	}
	if c.GroupSizeMax < c.GroupSizeMin {
		c.GroupSizeMax = c.GroupSizeMin
	}
	return c
}

// AminerSim returns the Aminer-like preset (7 topics, Table I's topic
// count) scaled to numPapers (0 for the default 2000).
func AminerSim(numPapers int) Config {
	if numPapers <= 0 {
		numPapers = 2000
	}
	return Config{Name: "aminer-sim", Seed: 101, NumPapers: numPapers, NumTopics: 7}
}

// DBLPSim returns the DBLP-like preset (13 topics) scaled to numPapers
// (0 for the default 2400).
func DBLPSim(numPapers int) Config {
	if numPapers <= 0 {
		numPapers = 2400
	}
	return Config{Name: "dblp-sim", Seed: 202, NumPapers: numPapers, NumTopics: 13}
}

// ACMSim returns the ACM-like preset (13 topics, larger corpus) scaled to
// numPapers (0 for the default 3000).
func ACMSim(numPapers int) Config {
	if numPapers <= 0 {
		numPapers = 3000
	}
	return Config{Name: "acm-sim", Seed: 303, NumPapers: numPapers, NumTopics: 13}
}

// Dataset is a generated academic network plus the side information the
// experiments need (topic assignments and ground-truth machinery).
type Dataset struct {
	Name  string
	Graph *hetgraph.Graph
	// Topics[i] is the Topic node of topic index i.
	Topics []hetgraph.NodeID
	// Venues lists all venue nodes.
	Venues []hetgraph.NodeID
	// PrimaryTopic maps each paper to its primary topic index.
	PrimaryTopic map[hetgraph.NodeID]int
	// AuthorTopics maps each author to the set of topic indices they
	// publish in.
	AuthorTopics map[hetgraph.NodeID]map[int]bool
	// expertsByTopic caches, per topic index, the set of authors with that
	// topic (the ground-truth sets).
	expertsByTopic []map[hetgraph.NodeID]bool
	// Generation internals kept for query paraphrasing.
	cfg      Config
	topicLex [][]string
	common   []string
}

// Generate builds a dataset from cfg.
func Generate(cfg Config) *Dataset {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := hetgraph.New()

	d := &Dataset{
		Name:         cfg.Name,
		Graph:        g,
		PrimaryTopic: map[hetgraph.NodeID]int{},
		AuthorTopics: map[hetgraph.NodeID]map[int]bool{},
		cfg:          cfg,
	}

	// Lexicons. Each topic owns a unique block plus a block shared with the
	// next topic on the ring, so adjacent topics are lexically confusable.
	wordGen := newWordGen(rng)
	common := wordGen.words(cfg.CommonLexicon)
	shared := int(float64(cfg.TopicLexicon) * cfg.TopicOverlapFrac)
	unique := cfg.TopicLexicon - shared
	bridges := make([][]string, cfg.NumTopics) // bridges[t]: shared between t and t+1
	for t := range bridges {
		bridges[t] = wordGen.words(shared)
	}
	topicLex := make([][]string, cfg.NumTopics)
	for t := range topicLex {
		lex := wordGen.words(unique)
		half := len(bridges[t]) / 2
		lex = append(lex, bridges[t][:half]...)
		prev := (t + cfg.NumTopics - 1) % cfg.NumTopics
		lex = append(lex, bridges[prev][half:]...)
		// Interleave so the head-biased sampler draws shared words too.
		rng.Shuffle(len(lex), func(i, j int) { lex[i], lex[j] = lex[j], lex[i] })
		topicLex[t] = lex
	}
	d.topicLex = topicLex
	d.common = common

	// Topic and venue nodes.
	for t := 0; t < cfg.NumTopics; t++ {
		d.Topics = append(d.Topics, g.AddNode(hetgraph.Topic, fmt.Sprintf("topic-%d-%s", t, topicLex[t][0])))
	}
	venuesOfTopic := make([][]hetgraph.NodeID, cfg.NumTopics)
	for t := 0; t < cfg.NumTopics; t++ {
		for v := 0; v < cfg.VenuesPerTopic; v++ {
			id := g.AddNode(hetgraph.Venue, fmt.Sprintf("venue-%d-%d", t, v))
			venuesOfTopic[t] = append(venuesOfTopic[t], id)
			d.Venues = append(d.Venues, id)
		}
	}

	// Research groups: enough groups per topic to cover the paper budget.
	type group struct {
		topic     int
		secondary int // -1 when none
		dialect   int // the group's predominant terminology
		authors   []hetgraph.NodeID
	}
	papersPerTopic := cfg.NumPapers / cfg.NumTopics
	if papersPerTopic < 1 {
		papersPerTopic = 1
	}
	groupsPerTopic := papersPerTopic / cfg.PapersPerGroup
	if groupsPerTopic < 1 {
		groupsPerTopic = 1
	}
	var groups []group
	for t := 0; t < cfg.NumTopics; t++ {
		for gi := 0; gi < groupsPerTopic; gi++ {
			size := cfg.GroupSizeMin + rng.Intn(cfg.GroupSizeMax-cfg.GroupSizeMin+1)
			gr := group{topic: t, secondary: -1, dialect: rng.Intn(cfg.Dialects)}
			for a := 0; a < size; a++ {
				id := g.AddNode(hetgraph.Author, fmt.Sprintf("author-%d-%d-%d", t, gi, a))
				gr.authors = append(gr.authors, id)
			}
			if rng.Float64() < cfg.InterdisciplinaryFrac && cfg.NumTopics > 1 {
				gr.secondary = rng.Intn(cfg.NumTopics - 1)
				if gr.secondary >= t {
					gr.secondary++
				}
			}
			groups = append(groups, gr)
		}
	}

	// Papers.
	papersOfTopic := make([][]hetgraph.NodeID, cfg.NumTopics)
	papersOfGroup := make([][]hetgraph.NodeID, len(groups))
	var allPapers []hetgraph.NodeID
	var text []byte // genText's buffer
	for i := 0; i < cfg.NumPapers; i++ {
		gi := rng.Intn(len(groups))
		gr := &groups[gi]
		topic := gr.topic
		// Interdisciplinary groups publish a third of their papers in
		// their secondary topic.
		if gr.secondary >= 0 && rng.Float64() < 0.33 {
			topic = gr.secondary
		}

		// A group mostly writes in its own terminology; occasionally a
		// paper adopts another dialect (new collaborators, venue norms).
		dialect := gr.dialect
		if rng.Float64() < 0.2 {
			dialect = rng.Intn(cfg.Dialects)
		}
		p := g.AddNode(hetgraph.Paper, genText(&text, rng, topicLex[topic], common, cfg, dialect))
		d.PrimaryTopic[p] = topic
		papersOfTopic[topic] = append(papersOfTopic[topic], p)
		papersOfGroup[gi] = append(papersOfGroup[gi], p)
		allPapers = append(allPapers, p)

		// Authors: a subset of the group, shuffled for varying ranks.
		na := cfg.AuthorsPerPaperMin + rng.Intn(cfg.AuthorsPerPaperMax-cfg.AuthorsPerPaperMin+1)
		if na > len(gr.authors) {
			na = len(gr.authors)
		}
		perm := rng.Perm(len(gr.authors))
		for _, ai := range perm[:na] {
			a := gr.authors[ai]
			g.MustAddEdge(a, p, hetgraph.Write)
			ts := d.AuthorTopics[a]
			if ts == nil {
				ts = map[int]bool{}
				d.AuthorTopics[a] = ts
			}
			ts[topic] = true
		}

		// Venue: mostly a venue of the topic.
		var venue hetgraph.NodeID
		if rng.Float64() < 0.9 {
			venue = venuesOfTopic[topic][rng.Intn(len(venuesOfTopic[topic]))]
		} else {
			venue = d.Venues[rng.Intn(len(d.Venues))]
		}
		g.MustAddEdge(p, venue, hetgraph.Publish)

		// Mention: the paper's topic label, which is occasionally wrong
		// (noisy tagging); optionally a secondary topic.
		label := topic
		if rng.Float64() < cfg.TopicLabelNoise && cfg.NumTopics > 1 {
			label = rng.Intn(cfg.NumTopics - 1)
			if label >= topic {
				label++
			}
		}
		g.MustAddEdge(p, d.Topics[label], hetgraph.Mention)
		if rng.Float64() < cfg.SecondaryMentionProb && cfg.NumTopics > 1 {
			sec := rng.Intn(cfg.NumTopics - 1)
			if sec >= label {
				sec++
			}
			g.MustAddEdge(p, d.Topics[sec], hetgraph.Mention)
		}

		// Citations to earlier papers: mostly the group's own work, the
		// rest from the topic. Deduplicate targets to respect the
		// simple-graph adjacency.
		ncites := rng.Intn(cfg.CitesMax + 1)
		cited := map[hetgraph.NodeID]bool{}
		for c := 0; c < ncites; c++ {
			var pool []hetgraph.NodeID
			switch r := rng.Float64(); {
			case r < cfg.RandomCiteProb:
				pool = allPapers
			case r < cfg.RandomCiteProb+cfg.OwnGroupCiteProb:
				pool = papersOfGroup[gi]
			default:
				pool = papersOfTopic[topic]
			}
			if len(pool) <= 1 {
				continue
			}
			q := pool[rng.Intn(len(pool))]
			if q == p || cited[q] {
				continue
			}
			cited[q] = true
			g.MustAddEdge(p, q, hetgraph.Cite)
		}
	}

	d.expertsByTopic = make([]map[hetgraph.NodeID]bool, cfg.NumTopics)
	for t := range d.expertsByTopic {
		d.expertsByTopic[t] = map[hetgraph.NodeID]bool{}
	}
	for a, ts := range d.AuthorTopics {
		for t := range ts {
			d.expertsByTopic[t][a] = true
		}
	}
	return d
}

// Query is one evaluation query: a descriptive text about a randomly
// chosen paper's topic plus the ground truth of §VI-A (all authors sharing
// the source paper's topic).
type Query struct {
	Source hetgraph.NodeID
	Text   string
	Topic  int
	Truth  map[hetgraph.NodeID]bool
}

// Queries draws n evaluation queries without replacement (or all papers if
// n exceeds the corpus), using rng. The query text is a paraphrase of the
// source paper: roughly a third of its words are reused and the rest drawn
// fresh from the same topic distribution. The paper forms queries from
// L(p) verbatim; with synthetic text that degenerates into an exact-match
// benchmark that only rewards lexical methods, whereas a paraphrase keeps
// the paper's semantics ("a user describes the desired expertise in her
// own words", §I) — EXPERIMENTS.md records this substitution.
func (d *Dataset) Queries(n int, rng *rand.Rand) []Query {
	papers := d.Graph.NodesOfType(hetgraph.Paper)
	idx := rng.Perm(len(papers))
	if n > len(idx) {
		n = len(idx)
	}
	out := make([]Query, 0, n)
	for _, i := range idx[:n] {
		p := papers[i]
		t := d.PrimaryTopic[p]
		out = append(out, Query{
			Source: p,
			Text:   d.paraphrase(p, t, rng),
			Topic:  t,
			Truth:  d.expertsByTopic[t],
		})
	}
	return out
}

// paraphrase builds a query text about paper p's topic in the user's own
// dialect: ~1/10 of the words are sampled from p's text, the rest generated
// like a fresh document of the same topic with an independently drawn
// dialect.
func (d *Dataset) paraphrase(p hetgraph.NodeID, topic int, rng *rand.Rand) string {
	source := strings.Fields(strings.ReplaceAll(d.Graph.Label(p), ".", ""))
	dialect := rng.Intn(d.cfg.Dialects)
	var b strings.Builder
	total := d.cfg.TitleWords + d.cfg.AbstractWords
	for i := 0; i < total; i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		switch {
		case len(source) > 0 && rng.Float64() < 0.10:
			b.WriteString(source[rng.Intn(len(source))])
		case rng.Float64() < d.cfg.TopicWordFrac:
			// An imprecise user: a quarter of the topical words stray into
			// other research areas (§I: topic text is "too limited to
			// express a user's latent query intention").
			lex := d.topicLex[topic]
			if rng.Float64() < 0.25 && len(d.topicLex) > 1 {
				other := rng.Intn(len(d.topicLex) - 1)
				if other >= topic {
					other++
				}
				lex = d.topicLex[other]
			}
			u := rng.Float64()
			b.WriteString(lex[int(u*u*float64(len(lex)))])
			b.WriteString(dialectSuffixes[dialect])
			b.WriteString(inflections[rng.Intn(len(inflections))])
		default:
			b.WriteString(d.common[rng.Intn(len(d.common))])
		}
	}
	return b.String()
}

// Corpus returns the label text of every paper, in paper order; it feeds
// vocabulary induction.
func (d *Dataset) Corpus() []string {
	papers := d.Graph.NodesOfType(hetgraph.Paper)
	out := make([]string, len(papers))
	for i, p := range papers {
		out[i] = d.Graph.Label(p)
	}
	return out
}

// wordGen produces pronounceable pseudo-words, unique across one
// generator.
type wordGen struct {
	rng  *rand.Rand
	seen map[string]bool
}

var (
	onsets = []string{"b", "c", "d", "f", "g", "h", "j", "k", "l", "m",
		"n", "p", "qu", "r", "s", "t", "v", "w", "x", "z", "br", "cl",
		"dr", "fl", "gr", "pl", "st", "tr"}
	vowels = []string{"a", "e", "i", "o", "u", "ai", "ea", "io", "ou"}
)

func newWordGen(rng *rand.Rand) *wordGen { return &wordGen{rng: rng, seen: map[string]bool{}} }

func (w *wordGen) word() string {
	for {
		var b strings.Builder
		syll := 2 + w.rng.Intn(3)
		for s := 0; s < syll; s++ {
			b.WriteString(onsets[w.rng.Intn(len(onsets))])
			b.WriteString(vowels[w.rng.Intn(len(vowels))])
		}
		s := b.String()
		if !w.seen[s] {
			w.seen[s] = true
			return s
		}
	}
}

func (w *wordGen) words(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = w.word()
	}
	return out
}

// genText builds title+abstract text: TopicWordFrac of the words come from
// the topic's stem lexicon (weighted towards its head so topics have
// characteristic high-frequency terms), rendered in the paper's dialect;
// the rest come from the common lexicon. The text is written into *buf,
// which is reused from one call to the next, and copied out once, so a
// label keeps no spare capacity alive.
func genText(buf *[]byte, rng *rand.Rand, topicStems, common []string, cfg Config, dialect int) string {
	b := (*buf)[:0]
	total := cfg.TitleWords + cfg.AbstractWords
	for i := 0; i < total; i++ {
		if i == cfg.TitleWords {
			b = append(b, ". "...)
		} else if i > 0 {
			b = append(b, ' ')
		}
		if rng.Float64() < cfg.TopicWordFrac {
			// Head-biased pick: squaring the uniform skews toward index 0.
			u := rng.Float64()
			b = append(b, topicStems[int(u*u*float64(len(topicStems)))]...)
			b = append(b, dialectSuffixes[dialect]...)
			b = append(b, inflections[rng.Intn(len(inflections))]...)
		} else {
			b = append(b, common[rng.Intn(len(common))]...)
		}
	}
	*buf = b
	return string(b)
}

// queryJSON is the serialised form of an evaluation query.
type queryJSON struct {
	Source hetgraph.NodeID   `json:"source"`
	Topic  int               `json:"topic"`
	Text   string            `json:"text"`
	Truth  []hetgraph.NodeID `json:"truth"`
}

// WriteQueriesJSON serialises evaluation queries (text plus ground-truth
// expert ids) so external tooling can score retrieval systems against the
// same benchmark.
func WriteQueriesJSON(w io.Writer, queries []Query) error {
	docs := make([]queryJSON, len(queries))
	for i, q := range queries {
		truth := make([]hetgraph.NodeID, 0, len(q.Truth))
		for a := range q.Truth {
			truth = append(truth, a)
		}
		sort.Slice(truth, func(x, y int) bool { return truth[x] < truth[y] })
		docs[i] = queryJSON{Source: q.Source, Topic: q.Topic, Text: q.Text, Truth: truth}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(docs)
}

// ReadQueriesJSON parses queries written by WriteQueriesJSON.
func ReadQueriesJSON(r io.Reader) ([]Query, error) {
	var docs []queryJSON
	if err := json.NewDecoder(r).Decode(&docs); err != nil {
		return nil, fmt.Errorf("dataset: decode queries: %w", err)
	}
	out := make([]Query, len(docs))
	for i, d := range docs {
		truth := make(map[hetgraph.NodeID]bool, len(d.Truth))
		for _, a := range d.Truth {
			truth[a] = true
		}
		out[i] = Query{Source: d.Source, Topic: d.Topic, Text: d.Text, Truth: truth}
	}
	return out, nil
}
