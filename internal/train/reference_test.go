package train

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"expertfind/internal/sampling"
	"expertfind/internal/textenc"
	"expertfind/internal/vec"
)

// The functions below are the trainer as it stood before PR 18 replaced
// its map[TokenID]vec.Vector gradients with dense rows: frozen here as the
// reference FineTune must reproduce bit for bit at every batch size.
// They allocate per triple and step Adam on one goroutine; nothing else
// about them differs, which is the point.

func refFineTune(enc *textenc.Encoder, cache TokenCache, triples []sampling.Triple,
	cfg Config, rng *rand.Rand) (*Result, *adam) {
	cfg = cfg.withDefaults()
	res := &Result{Triples: len(triples)}
	if len(triples) == 0 {
		return res, nil
	}
	opt := newAdam(enc.Emb)
	order := make([]int, len(triples))
	for i := range order {
		order[i] = i
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var epochLoss float64
		for start := 0; start < len(order); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(order) {
				end = len(order)
			}
			grads, loss := refBatchGradients(enc, cache, triples, order[start:end])
			epochLoss += loss
			if len(grads) > 0 {
				refAdamStep(opt, grads)
				res.Steps++
			}
		}
		res.EpochLosses = append(res.EpochLosses, epochLoss/float64(len(order)))
	}
	return res, opt
}

func refBatchGradients(enc *textenc.Encoder, cache TokenCache, triples []sampling.Triple,
	batch []int) (map[textenc.TokenID]vec.Vector, float64) {
	workers := gradChunks
	if workers > len(batch) {
		workers = len(batch)
	}
	type partial struct {
		grads map[textenc.TokenID]vec.Vector
		loss  float64
	}
	parts := make([]partial, workers)
	var wg sync.WaitGroup
	chunk := (len(batch) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(batch) {
			hi = len(batch)
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			p := partial{grads: map[textenc.TokenID]vec.Vector{}}
			for _, idx := range batch[lo:hi] {
				p.loss += refTripleGradient(enc, cache, triples[idx], p.grads)
			}
			parts[w] = p
		}(w, lo, hi)
	}
	wg.Wait()

	total := map[textenc.TokenID]vec.Vector{}
	var loss float64
	for _, p := range parts {
		loss += p.loss
		for id, gp := range p.grads {
			if g, ok := total[id]; ok {
				g.Add(gp)
			} else {
				total[id] = gp
			}
		}
	}
	return total, loss
}

func refTripleGradient(enc *textenc.Encoder, cache TokenCache, t sampling.Triple,
	grads map[textenc.TokenID]vec.Vector) float64 {
	sTok, pTok, nTok := cache[t.Seed], cache[t.Pos], cache[t.Neg]
	us := encodeRaw64(enc, sTok)
	up := encodeRaw64(enc, pTok)
	un := encodeRaw64(enc, nTok)
	vs, nvs := refNormalized(us)
	vp, nvp := refNormalized(up)
	vn, nvn := refNormalized(un)

	dp := slices.Clone(vs).Sub(vp)
	dn := slices.Clone(vs).Sub(vn)
	np := dp.Norm()
	nn := dn.Norm()
	loss := np - nn + margin
	if loss <= 0 {
		return 0
	}
	gs := vec.New(enc.Dim)
	gp := vec.New(enc.Dim)
	gn := vec.New(enc.Dim)
	if np > 0 {
		gs.Axpy(1/np, dp)
		gp.Axpy(-1/np, dp)
	}
	if nn > 0 {
		gs.Axpy(-1/nn, dn)
		gn.Axpy(1/nn, dn)
	}
	refScatter(enc, sTok, refThroughNorm(gs, vs, nvs), grads)
	refScatter(enc, pTok, refThroughNorm(gp, vp, nvp), grads)
	refScatter(enc, nTok, refThroughNorm(gn, vn, nvn), grads)
	return loss
}

func refNormalized(u vec.Vector) (vec.Vector, float64) {
	n := u.Norm()
	if n == 0 {
		return u, n
	}
	return slices.Clone(u).Scale(1 / n), n
}

func refThroughNorm(g, v vec.Vector, rawNorm float64) vec.Vector {
	if rawNorm == 0 {
		return g
	}
	out := slices.Clone(g)
	out.Axpy(-g.Dot(v), v)
	return out.Scale(1 / rawNorm)
}

func refScatter(enc *textenc.Encoder, ids []textenc.TokenID, gDoc vec.Vector,
	grads map[textenc.TokenID]vec.Vector) {
	if len(ids) == 0 {
		return
	}
	row := func(id textenc.TokenID) vec.Vector {
		g, ok := grads[id]
		if !ok {
			g = vec.New(len(gDoc))
			grads[id] = g
		}
		return g
	}
	ws := enc.PoolWeights(ids)
	for i, id := range ids {
		row(id).Axpy(ws[i], gDoc)
	}
}

func refAdamStep(a *adam, grads map[textenc.TokenID]vec.Vector) {
	for id, g := range grads {
		r := int(id)
		a.tRow[r]++
		t := float64(a.tRow[r])
		mRow, vRow, w := a.m.Row(r), a.v.Row(r), a.table.Row(r)
		bc1 := 1 - math.Pow(beta1, t)
		bc2 := 1 - math.Pow(beta2, t)
		for j, gj := range g {
			mRow[j] = beta1*mRow[j] + (1-beta1)*gj
			vRow[j] = beta2*vRow[j] + (1-beta2)*gj*gj
			mHat := mRow[j] / bc1
			vHat := vRow[j] / bc2
			w[j] = float32(float64(w[j]) - learningRate*mHat/(math.Sqrt(vHat)+epsilon))
		}
	}
}

// requireSameRun fails unless two fine-tuned tables, their per-epoch
// losses and their optimisers' float64 moments are the same bits. The
// moments see a gradient sum summed in another order even where the
// float32 table rounds the difference away.
func requireSameRun(t *testing.T, what string, got, want *textenc.Encoder, gotRes, wantRes *Result,
	gotOpt, wantOpt *adam) {
	t.Helper()
	for name, pair := range map[string][2]*vec.Matrix{"m": {gotOpt.m, wantOpt.m}, "v": {gotOpt.v, wantOpt.v}} {
		for i, x := range pair[1].Data {
			if math.Float64bits(pair[0].Data[i]) != math.Float64bits(x) {
				t.Fatalf("%s: Adam moment %s row %d dim %d is %x, want %x", what, name, i/pair[1].Cols,
					i%pair[1].Cols, math.Float64bits(pair[0].Data[i]), math.Float64bits(x))
			}
		}
	}
	for i := range want.Emb.Data {
		if math.Float32bits(got.Emb.Data[i]) != math.Float32bits(want.Emb.Data[i]) {
			t.Fatalf("%s: table row %d dim %d is %x, want %x", what, i/want.Emb.Cols, i%want.Emb.Cols,
				math.Float32bits(got.Emb.Data[i]), math.Float32bits(want.Emb.Data[i]))
		}
	}
	if len(gotRes.EpochLosses) != len(wantRes.EpochLosses) || gotRes.Steps != wantRes.Steps {
		t.Fatalf("%s: %d epochs and %d steps, want %d and %d", what,
			len(gotRes.EpochLosses), gotRes.Steps, len(wantRes.EpochLosses), wantRes.Steps)
	}
	for i, l := range wantRes.EpochLosses {
		if math.Float64bits(gotRes.EpochLosses[i]) != math.Float64bits(l) {
			t.Fatalf("%s: epoch %d loss %x, want %x", what, i,
				math.Float64bits(gotRes.EpochLosses[i]), math.Float64bits(l))
		}
	}
}

// TestFineTuneMatchesReference: the dense-row trainer moves no bit of the
// table, of any epoch's loss or of the Adam moments relative to the
// map-of-vectors trainer, for a batch that fills fewer chunks than the
// grid has (5), the default 64, and 100, whose last batch is short. It is
// the one check that catches the partial gradients merged in reverse part
// order: that moves the float64 moments, while the float32 table rounds it
// away from TestFineTuneGolden, every Example and the counts ledger.
func TestFineTuneMatchesReference(t *testing.T) {
	g, fixed, cache := fixture(t)
	triples := someTriples(g, 64*3+9)
	for _, batch := range []int{5, 64, 100} {
		cfg := Config{Epochs: 3, BatchSize: batch}
		got, want := cloneEncoder(t, fixed), cloneEncoder(t, fixed)
		gotRes, gotOpt := fineTune(got, cache, triples, cfg, rand.New(rand.NewSource(3)))
		wantRes, wantOpt := refFineTune(want, cache, triples, cfg, rand.New(rand.NewSource(3)))
		if wantRes.Steps == 0 {
			t.Fatal("the reference took no optimiser step")
		}
		requireSameRun(t, fmt.Sprintf("batch %d", batch), got, want, gotRes, wantRes, gotOpt, wantOpt)
	}
}
