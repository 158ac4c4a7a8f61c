package train

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"expertfind/internal/dataset"
	"expertfind/internal/hetgraph"
	"expertfind/internal/hetgraph/testgraph"
	"expertfind/internal/sampling"
	"expertfind/internal/textenc"
	"expertfind/internal/vec"
)

// fixture builds a tiny graph, encoder and token cache.
func fixture(t *testing.T) (*hetgraph.Graph, *textenc.Encoder, TokenCache) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	g := testgraph.Random(rng, 30, 12, 2, 3)
	var corpus []string
	for _, p := range g.NodesOfType(hetgraph.Paper) {
		corpus = append(corpus, g.Label(p))
	}
	vocab := textenc.BuildVocab(corpus, textenc.VocabConfig{MinWordFreq: 1})
	enc := textenc.NewEncoder(vocab, 12, 7)
	return g, enc, BuildTokenCache(g, enc)
}

func someTriples(g *hetgraph.Graph, n int) []sampling.Triple {
	papers := g.NodesOfType(hetgraph.Paper)
	rng := rand.New(rand.NewSource(9))
	out := make([]sampling.Triple, n)
	for i := range out {
		out[i] = sampling.Triple{
			Seed: papers[rng.Intn(len(papers))],
			Pos:  papers[rng.Intn(len(papers))],
			Neg:  papers[rng.Intn(len(papers))],
		}
	}
	return out
}

func TestBuildTokenCacheCoversAllPapers(t *testing.T) {
	g, _, cache := fixture(t)
	if len(cache) != g.NumNodesOfType(hetgraph.Paper) {
		t.Fatalf("cache has %d entries, want %d", len(cache), g.NumNodesOfType(hetgraph.Paper))
	}
	for p, ids := range cache {
		if g.Type(p) != hetgraph.Paper {
			t.Fatal("non-paper in cache")
		}
		if len(ids) == 0 {
			t.Fatalf("paper %d tokenized to nothing", p)
		}
	}
}

// TestBuildTokenCacheMatchesTokenize holds the parallel cache to one
// Tokenize per paper, on one core and on four.
func TestBuildTokenCacheMatchesTokenize(t *testing.T) {
	g := dataset.Generate(dataset.AminerSim(300)).Graph
	var corpus []string
	for _, p := range g.NodesOfType(hetgraph.Paper) {
		corpus = append(corpus, g.Label(p))
	}
	enc := textenc.NewEncoder(textenc.BuildVocab(corpus, textenc.VocabConfig{}), 8, 1)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		cache := BuildTokenCache(g, enc)
		if len(cache) != len(corpus) {
			t.Fatalf("GOMAXPROCS %d: cache has %d papers, want %d", procs, len(cache), len(corpus))
		}
		for _, p := range g.NodesOfType(hetgraph.Paper) {
			if want := enc.Tokenizer().Tokenize(g.Label(p)); !slices.Equal(cache[p], want) {
				t.Fatalf("GOMAXPROCS %d: paper %d has tokens %v, Tokenize gives %v", procs, p, cache[p], want)
			}
		}
	}
}

func TestFineTuneEmptyTriples(t *testing.T) {
	_, enc, cache := fixture(t)
	res := FineTune(enc, cache, nil, Config{}, rand.New(rand.NewSource(1)))
	if res.Steps != 0 || len(res.EpochLosses) != 0 {
		t.Error("training on no triples did work")
	}
}

func TestFineTuneLossDecreases(t *testing.T) {
	g, enc, cache := fixture(t)
	triples := someTriples(g, 120)
	res := FineTune(enc, cache, triples, Config{Epochs: 6}, rand.New(rand.NewSource(2)))
	if len(res.EpochLosses) != 6 {
		t.Fatalf("epochs = %d", len(res.EpochLosses))
	}
	first, last := res.EpochLosses[0], res.EpochLosses[len(res.EpochLosses)-1]
	if !(last < first) {
		t.Errorf("loss did not decrease: %v", res.EpochLosses)
	}
	if res.Steps == 0 || res.Triples != 120 {
		t.Errorf("result bookkeeping wrong: %+v", res)
	}
}

func TestFineTuneDeterministic(t *testing.T) {
	g, enc, cache := fixture(t)
	triples := someTriples(g, 60)
	e1 := enc.Clone()
	e2 := enc.Clone()
	FineTune(e1, cache, triples, Config{Epochs: 2}, rand.New(rand.NewSource(3)))
	FineTune(e2, cache, triples, Config{Epochs: 2}, rand.New(rand.NewSource(3)))
	for i := range e1.Emb.Data {
		if e1.Emb.Data[i] != e2.Emb.Data[i] {
			t.Fatal("training not deterministic across runs")
		}
	}
}

func TestFineTunePullsPositivesCloser(t *testing.T) {
	g, enc, cache := fixture(t)
	papers := g.NodesOfType(hetgraph.Paper)
	s, pos, neg := papers[0], papers[1], papers[2]
	triples := make([]sampling.Triple, 50)
	for i := range triples {
		triples[i] = sampling.Triple{Seed: s, Pos: pos, Neg: neg}
	}
	before := enc.EncodeTokens(cache[s]).L2(enc.EncodeTokens(cache[pos])) -
		enc.EncodeTokens(cache[s]).L2(enc.EncodeTokens(cache[neg]))
	FineTune(enc, cache, triples, Config{Epochs: 4}, rand.New(rand.NewSource(4)))
	after := enc.EncodeTokens(cache[s]).L2(enc.EncodeTokens(cache[pos])) -
		enc.EncodeTokens(cache[s]).L2(enc.EncodeTokens(cache[neg]))
	if !(after < before) {
		t.Errorf("margin did not improve: before %v, after %v", before, after)
	}
}

// TestTripleGradientNumerical verifies the analytic gradient (including
// the chain rule through pooling and L2 normalisation) against central
// finite differences on every touched parameter of a small table.
func TestTripleGradientNumerical(t *testing.T) {
	g, enc, cache := fixture(t)
	papers := g.NodesOfType(hetgraph.Paper)
	tr := sampling.Triple{Seed: papers[0], Pos: papers[3], Neg: papers[5]}
	const margin = 1.0

	// The loss is recomputed through the trainer's float64 forward path
	// (EncodeTokensRaw64): finite differences need more resolution than the
	// float32 serving encode provides.
	loss := func() float64 { return tripleLoss64(enc, cache, tr, margin) }
	if loss() == 0 {
		t.Skip("fixture triple has zero loss; gradient everywhere zero")
	}

	w := newWorker(enc, cache, poolWeights(enc, cache, []sampling.Triple{tr}))
	got := w.tripleGradient(tr, margin)
	if math.Abs(got-loss()) > 1e-9 {
		t.Fatalf("returned loss %v != recomputed %v", got, loss())
	}

	const h = 1e-6
	checked := 0
	for s, id := range w.grad.ids {
		gv := w.grad.at(s)
		row := enc.Emb.Row(int(id))
		for j := 0; j < len(row); j += 5 { // sample dimensions
			orig := row[j]
			// The table is float32, so w±h rounds; divide by the step the
			// weights actually took, not the nominal 2h.
			row[j] = float32(float64(orig) + h)
			hp := float64(row[j]) - float64(orig)
			lp := loss()
			row[j] = float32(float64(orig) - h)
			hm := float64(orig) - float64(row[j])
			lm := loss()
			row[j] = orig
			num := (lp - lm) / (hp + hm)
			if math.Abs(num-gv[j]) > 1e-4*(1+math.Abs(num)) {
				t.Fatalf("token %d dim %d: analytic %v, numeric %v", id, j, gv[j], num)
			}
			checked++
		}
	}
	if checked < 10 {
		t.Fatalf("only %d parameters checked", checked)
	}
}

// tripleLoss64 recomputes the triplet loss exactly as tripleGradient's
// forward pass does: float64 pooling over the float32 table, float64
// normalisation.
func tripleLoss64(enc *textenc.Encoder, cache TokenCache, tr sampling.Triple, margin float64) float64 {
	norm := func(ids []textenc.TokenID) vec.Vector {
		u := enc.EncodeTokensRaw64(ids)
		if n := u.Norm(); n != 0 {
			u.Scale(1 / n)
		}
		return u
	}
	vs, vp, vn := norm(cache[tr.Seed]), norm(cache[tr.Pos]), norm(cache[tr.Neg])
	l := vs.L2(vp) - vs.L2(vn) + margin
	if l < 0 {
		return 0
	}
	return l
}

func TestTripleGradientZeroWhenSatisfied(t *testing.T) {
	g, enc, cache := fixture(t)
	papers := g.NodesOfType(hetgraph.Paper)
	// With margin 0 and pos == seed, the loss is -d(s,neg) <= 0.
	tr := sampling.Triple{Seed: papers[0], Pos: papers[0], Neg: papers[1]}
	w := newWorker(enc, cache, poolWeights(enc, cache, []sampling.Triple{tr}))
	if l := w.tripleGradient(tr, 0); l != 0 || len(w.grad.ids) != 0 {
		t.Errorf("satisfied triple produced loss %v and %d gradients", l, len(w.grad.ids))
	}
}

func TestEmbedAllMatchesSequential(t *testing.T) {
	g, enc, cache := fixture(t)
	embs := EmbedAll(enc, cache)
	if len(embs) != len(cache) {
		t.Fatalf("embedded %d papers, want %d", len(embs), len(cache))
	}
	for _, p := range g.NodesOfType(hetgraph.Paper) {
		want := enc.EncodeTokens(cache[p])
		got := embs[p]
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("parallel embedding of %d differs from sequential", p)
			}
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	if c := (Config{}).withDefaults(); c.Epochs != 4 || c.BatchSize != 64 {
		t.Errorf("defaults wrong: %+v", c)
	}
}

func TestAdamStepMovesAgainstGradient(t *testing.T) {
	table := vec.NewMatrix32(2, 3)
	opt := newAdam(table)
	g := newSparseGrad(2, 3)
	copy(g.row(0), []float64{1, -1, 0})
	opt.step([]*sparseGrad{g})
	row := table.Row(0)
	if !(row[0] < 0 && row[1] > 0 && row[2] == 0) {
		t.Errorf("Adam step direction wrong: %v", row)
	}
	if table.Row(1)[0] != 0 {
		t.Error("untouched row modified")
	}
}

func TestResultString(t *testing.T) {
	r := &Result{Triples: 3, Steps: 2, EpochLosses: []float64{0.5}}
	if r.String() == "" {
		t.Error("empty String()")
	}
}

// TestFineTuneGolden pins the default fine-tune's bits: the last epoch's
// loss and an FNV-64a hash of the tuned table's float32 bits. A change
// that moves the optimiser or the pooling by one rounding fails here.
func TestFineTuneGolden(t *testing.T) {
	g, enc, cache := fixture(t)
	res := FineTune(enc, cache, someTriples(g, 200), Config{}, rand.New(rand.NewSource(11)))
	h := fnv.New64a()
	var b [4]byte
	for _, x := range enc.Emb.Data {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(x))
		h.Write(b[:])
	}
	const wantLoss, wantTable = 0x3feca366541276ff, 0x2d844aec31f29d20
	if got := math.Float64bits(res.EpochLosses[len(res.EpochLosses)-1]); got != wantLoss {
		t.Errorf("final epoch loss bits %#x, want %#x", got, uint64(wantLoss))
	}
	if got := h.Sum64(); got != wantTable {
		t.Errorf("table hash %#x, want %#x", got, uint64(wantTable))
	}
}
