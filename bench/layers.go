package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"expertfind/internal/cluster"
	"expertfind/internal/colstore"
	"expertfind/internal/core"
	"expertfind/internal/dataset"
	"expertfind/internal/durable"
	"expertfind/internal/hetgraph"
	"expertfind/internal/kpcore"
	"expertfind/internal/obs"
	"expertfind/internal/pgindex"
	"expertfind/internal/sampling"
	"expertfind/internal/ta"
	"expertfind/internal/textenc"
	"expertfind/internal/train"
	"expertfind/internal/vec"
)

// This file is the traced run's layer-by-layer half: it calls the layers'
// public functions one at a time, from outside, under spans of the
// benchmark's own recorder. Nothing here runs when end-to-end metrics are
// measured.

// Defaults of core.Options the staged pipeline has to repeat, because it
// calls the stages core.Build calls and must feed them the same inputs.
const (
	defaultK         = 4
	defaultFraction  = 0.3
	defaultNegPerPos = 3
	defaultMaxPos    = 64
	defaultDim       = 64
	probeSeeds       = 200 // community searches timed by the kpcore probe
	probeN           = 200 // operations behind a probe's p50
)

var defaultMetaPaths = []hetgraph.MetaPath{hetgraph.PAP, hetgraph.PTP}

// staged is what the stage-by-stage pipeline produced.
type staged struct {
	enc   *textenc.Encoder
	embs  map[hetgraph.NodeID]vec.Vec32
	index *pgindex.Index
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// stagedPipeline repeats core.Build stage by stage, in its order and
// with its seeds, timing each stage; then checks that it arrived at the
// engine's own embeddings, so the stage times describe the build that was
// measured. What the stages do not add up to is reported, not hidden.
func (e *env) stagedPipeline() *staged {
	s, g, rec := e.spec, e.ds.Graph, e.rec
	useKP := s.options.UseKPCore == nil || *s.options.UseKPCore
	usePG := s.options.UsePGIndex == nil || *s.options.UsePGIndex
	root := rec.start("staged.build", -1, -1)
	var sum time.Duration
	stage := func(metric, name string, fn func()) time.Duration {
		d := rec.timed(name, root, -1, fn)
		sum += d
		if metric != "" {
			e.lay.set(metric, d.Seconds())
		}
		return d
	}

	var corpus []string
	var vocab *textenc.Vocab
	st := &staged{}
	stage("textenc.vocab_s", "textenc.vocab", func() {
		for _, p := range g.NodesOfType(hetgraph.Paper) {
			corpus = append(corpus, g.Label(p))
		}
		vocab = textenc.BuildVocab(corpus, s.options.Vocab)
	})
	stage("textenc.pretrain_s", "textenc.pretrain", func() {
		st.enc = textenc.NewEncoder(vocab, defaultDim, engineSeed)
		textenc.PretrainDistributional(st.enc, corpus)
	})
	var cache train.TokenCache
	stage("train.tokencache_s", "train.tokencache", func() { cache = train.BuildTokenCache(g, st.enc) })

	if useKP {
		cfg := sampling.Config{Fraction: defaultFraction, K: defaultK, MetaPaths: defaultMetaPaths,
			NegPerPos: defaultNegPerPos, MaxPositivesPerSeed: defaultMaxPos, UseCoreIndex: s.options.FastSampling}
		metric := "sampling.generate_s"
		if cfg.UseCoreIndex {
			metric = "sampling.generate_fast_s"
		}
		var triples []sampling.Triple
		stage(metric, "sampling.generate", func() {
			triples, _ = sampling.Generate(g, cfg, rand.New(rand.NewSource(engineSeed)))
		})
		e.lay.set("sampling.triples", float64(len(triples)))
		var res *train.Result
		d := stage("train.finetune_s", "train.finetune", func() {
			res = train.FineTune(st.enc, cache, triples, s.options.Train, rand.New(rand.NewSource(engineSeed+1)))
		})
		if n := len(res.EpochLosses); n > 0 {
			e.lay.set("train.triples_per_s", float64(len(triples)*n)/d.Seconds())
			e.lay.set("train.final_loss", res.EpochLosses[n-1])
		}
	}
	stage("train.embedall_s", "train.embedall", func() { st.embs = train.EmbedAll(st.enc, cache) })
	if usePG {
		cfg := pgindex.DefaultConfig()
		cfg.Seed = engineSeed
		stage("pgindex.build_s", "pgindex.build", func() {
			st.index = pgindex.BuildWithRand(st.embs, cfg, rand.New(rand.NewSource(cfg.Seed)))
		})
		e.lay.set("pgindex.edges", float64(st.index.NumEdges()))
		e.lay.set("pgindex.memory_bytes", float64(st.index.MemoryBytes()))
	}
	rec.end(root)
	e.lay.set("core.build_unattributed_s", e.buildS-sum.Seconds())

	differ := 0
	if len(st.embs) != len(e.eng.Embeddings) {
		differ++
	}
	for id, v := range st.embs {
		w := e.eng.Embeddings[id]
		if len(w) != len(v) {
			differ++
			continue
		}
		for i := range v {
			if math.Float32bits(v[i]) != math.Float32bits(w[i]) {
				differ++
				break
			}
		}
	}
	if usePG && st.index.NumEdges() != e.eng.Stats().IndexEdges {
		differ++
	}
	e.check("staged pipeline reproduces the engine's embeddings and index", len(st.embs), differ)

	if useKP {
		e.probeKPCore()
	}
	return st
}

// probeKPCore times the community layer on its own: one CoreIndex per
// meta-path, and — on the workload that samples per seed — Algorithm 1
// over fixed seeds plus the CoreIndex sampling it could have used.
func (e *env) probeKPCore() {
	g := e.ds.Graph
	d := e.rec.timed("kpcore.coreindex", -1, -1, func() {
		for _, mp := range defaultMetaPaths {
			kpcore.NewCoreIndex(g, defaultK, mp)
		}
	})
	e.lay.set("kpcore.coreindex_s", d.Seconds())
	if e.spec.options.FastSampling {
		return
	}
	papers := g.NodesOfType(hetgraph.Paper)
	rng := rand.New(rand.NewSource(qualitySeed))
	n := min(probeSeeds, len(papers))
	var size float64
	d = e.rec.timed("kpcore.searchmulti", -1, -1, func() {
		for _, i := range rng.Perm(len(papers))[:n] {
			size += float64(len(kpcore.SearchMulti(g, papers[i], defaultK, defaultMetaPaths).Members))
		}
	})
	e.lay.set("kpcore.search_ms_per_seed", d.Seconds()*1000/float64(n))
	e.lay.set("kpcore.community_size_mean", size/float64(n))
	d = e.rec.timed("sampling.generate_fast", -1, -1, func() {
		sampling.Generate(g, sampling.Config{Fraction: defaultFraction, K: defaultK, MetaPaths: defaultMetaPaths,
			NegPerPos: defaultNegPerPos, MaxPositivesPerSeed: defaultMaxPos, UseCoreIndex: true},
			rand.New(rand.NewSource(engineSeed)))
	})
	e.lay.set("sampling.generate_fast_s", d.Seconds())
}

// freshQueries draws n queries no earlier phase has sent, so a query
// cache cannot answer them.
func (e *env) freshQueries(n int, salt int64) []dataset.Query {
	return e.ds.Queries(n, rand.New(rand.NewSource(e.cfg.seed+salt)))
}

// replay answers a sample of queries stage by stage — encode, search or
// scan, TA — through the layers' public functions, checks each answer
// against Engine.TopExperts, and reports what the engine adds on top.
func (e *env) replay() {
	enc, idx, g := e.eng.Encoder(), e.eng.Index(), e.eng.Graph()
	n := 2000
	if idx == nil {
		n = 300 // a scan costs milliseconds, not microseconds
	}
	queries := e.freshQueries(n, 3)
	papers := float64(len(e.eng.Embeddings))
	var encT, retT, taT, fullT, scanT []float64
	var tokens, evals, expans, visited, accesses, depth, early, recalls []float64
	// Whichever of the staged query and the engine's own runs second finds
	// the caches warm, so they alternate and each order keeps its own
	// residuals.
	var residual [2][]float64
	differ := 0
	for i, q := range queries {
		var want []ta.Ranking
		var err error
		engine := func() time.Duration {
			return e.rec.timed("core.topexperts", -1, i, func() { want, _, err = e.eng.TopExperts(q.Text, topM, topN) })
		}
		var engD time.Duration
		if i%2 == 1 {
			engD = engine()
		}

		root := e.rec.start("replay", -1, i)
		var qv vec.Vec32
		encD := e.rec.timed("textenc.encode", root, i, func() { qv = enc.Encode(q.Text) })
		var res []pgindex.Result
		var retD time.Duration
		if idx != nil {
			var st pgindex.SearchStats
			retD = e.rec.timed("pgindex.search", root, i, func() { res, st = idx.Search(qv, topM, 0) })
			evals = append(evals, float64(st.DistanceComputations))
			expans = append(expans, float64(st.Expansions))
			visited = append(visited, float64(st.NodesVisited)/papers)
		} else {
			retD = e.rec.timed("pgindex.bruteforce", root, i, func() { res = pgindex.BruteForce(e.eng.Embeddings, qv, topM) })
			scanT = append(scanT, retD.Seconds()*1000)
		}
		ids := resultIDs(res)
		var ranks []ta.Ranking
		var st ta.Stats
		taD := e.rec.timed("ta.topexperts", root, i, func() { ranks, st = ta.TopExperts(g, ids, topN) })
		e.rec.end(root)

		if i%2 == 0 {
			engD = engine()
		}
		if err != nil || !sameRanking(ranks, want) {
			differ++
		}
		encT, retT, taT = append(encT, us(encD)), append(retT, us(retD)), append(taT, us(taD))
		residual[i%2] = append(residual[i%2], us(engD-encD-retD-taD))
		accesses = append(accesses, float64(st.SortedAccesses))
		depth = append(depth, float64(st.Depth))
		if st.EarlyTermination {
			early = append(early, 1)
		} else {
			early = append(early, 0)
		}
		fullT = append(fullT, us(e.rec.timed("ta.fullscan", -1, i, func() { ta.TopExpertsFullScan(g, ids, topN) })))
		tokens = append(tokens, float64(len(enc.Tokenizer().Tokenize(q.Text))))
		if idx != nil && i < recallN {
			var exact []pgindex.Result
			d := e.rec.timed("pgindex.bruteforce", -1, i, func() { exact = pgindex.BruteForce(e.eng.Embeddings, qv, topM) })
			scanT = append(scanT, d.Seconds()*1000)
			recalls = append(recalls, overlap(ids, exact))
		}
	}
	e.check("staged query equals Engine.TopExperts bit for bit", n, differ)

	e.lay.set("textenc.encode_us", median(encT))
	e.lay.set("textenc.tokens_per_query", mean(tokens))
	e.lay.set("ta.topexperts_us", median(taT))
	e.lay.set("ta.fullscan_us", median(fullT))
	e.lay.set("ta.sorted_accesses_per_query", mean(accesses))
	e.lay.set("ta.depth_mean", mean(depth))
	e.lay.set("ta.early_termination_ratio", mean(early))
	e.lay.set("core.query_overhead_us", (median(residual[0])+median(residual[1]))/2)
	e.lay.set("pgindex.bruteforce_ms", median(scanT))
	e.lay.set("pgindex.bruteforce_gbps", papers*defaultDim*4/(median(scanT)/1000)/1e9)
	e.lay.set("pgindex.recall_at_m", 1)
	if idx != nil {
		e.lay.set("pgindex.search_us", median(retT))
		e.lay.set("pgindex.dist_evals_per_query", mean(evals))
		e.lay.set("pgindex.expansions_per_query", mean(expans))
		e.lay.set("pgindex.visited_fraction", mean(visited))
		e.lay.set("pgindex.recall_at_m", mean(recalls))
	}
}

func resultIDs(res []pgindex.Result) []hetgraph.NodeID {
	ids := make([]hetgraph.NodeID, len(res))
	for i, r := range res {
		ids[i] = r.ID
	}
	return ids
}

// probes runs the microbenchmarks of the layers below the query path, on
// this workload's own data. pristine is the snapshot of the fresh engine.
func (e *env) probes(st *staged, pristine string) error {
	e.probeKernels()
	if st.index != nil {
		var t []float64
		for i, q := range e.freshQueries(probeN, 5) {
			v := st.enc.Encode(q.Text)
			id := hetgraph.NodeID(1<<30 + i) // no paper of the corpus has it
			var err error
			t = append(t, us(e.rec.timed("pgindex.insert", -1, i, func() { err = st.index.Insert(id, v) })))
			if err != nil {
				return err
			}
		}
		e.lay.set("pgindex.insert_us", median(t))
	}
	if err := e.probeColstore(); err != nil {
		return err
	}
	if err := e.probeLoad(pristine); err != nil {
		return err
	}
	if e.spec.durable {
		for _, p := range []struct {
			metric string
			sync   durable.SyncPolicy
		}{{"durable.wal_append_sync_us", durable.SyncAlways}, {"durable.wal_append_nosync_us", durable.SyncNever}} {
			d, err := e.probeWAL(p.sync)
			if err != nil {
				return err
			}
			e.lay.set(p.metric, d)
		}
	}
	if e.spec.door != doorInProcess {
		if err := e.probeHTTP(); err != nil {
			return err
		}
	}
	if e.spec.door == doorRouter {
		return e.probeShards()
	}
	return nil
}

// probeKernels streams the vec kernels over the workload's own embedding
// matrix: the ceiling the exact scan is judged against.
func (e *env) probeKernels() {
	m := vec.NewMatrix32(0, defaultDim)
	for _, v := range e.eng.Embeddings {
		m.AppendRow(v)
	}
	q := m.Row(0)
	const reps = 300 // passes over the matrix: 1.5 GB streamed at 20000 rows
	var sink float32
	d := e.rec.timed("vec.dot32", -1, -1, func() {
		for r := 0; r < reps; r++ {
			for i := 0; i < m.Rows; i++ {
				sink += vec.Dot32(q, m.Row(i))
			}
		}
	})
	rows := float64(reps * m.Rows)
	e.lay.set("vec.dot32_gbps", rows*defaultDim*4/d.Seconds()/1e9)
	d = e.rec.timed("vec.l2sq32", -1, -1, func() {
		for r := 0; r < reps; r++ {
			for i := 0; i < m.Rows; i++ {
				sink += vec.L2Sq32(q, m.Row(i))
			}
		}
	})
	e.lay.set("vec.l2sq32_ns_d64", float64(d.Nanoseconds())/rows)
	qm := vec.Quantize(m)
	qq := qm.Row(0)
	var isink int32
	d = e.rec.timed("vec.dot_i8", -1, -1, func() {
		for r := 0; r < reps; r++ {
			for i := 0; i < qm.Rows; i++ {
				isink += vec.DotInt8(qq, qm.Row(i))
			}
		}
	})
	e.lay.set("vec.dot_i8_ns_d64", float64(d.Nanoseconds())/rows)
	if math.IsNaN(float64(sink)) && isink == 0 {
		e.res.Notes = append(e.res.Notes, "kernel probe summed to NaN") // also keeps the loops alive
	}
}

// probeColstore writes the embedding matrix as one columnar section and
// opens it mapped and on the heap.
func (e *env) probeColstore() error {
	var flat []float32
	for _, v := range e.eng.Embeddings {
		flat = append(flat, v...)
	}
	path := filepath.Join(e.dir, "section.col")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	d := e.rec.timed("colstore.write", -1, -1, func() {
		_, _, err = colstore.WriteSection(f, 0, []colstore.SegmentData{colstore.F32Seg("embs", flat)})
	})
	if err != nil {
		return err
	}
	e.lay.set("colstore.write_mbps", float64(len(flat)*4)/d.Seconds()/1e6)
	for _, p := range []struct {
		metric, span string
		mode         colstore.Mode
	}{{"colstore.open_mmap_us", "colstore.open_mmap", colstore.ModeOn}, {"colstore.open_heap_us", "colstore.open_heap", colstore.ModeOff}} {
		var t []float64
		for i := 0; i < 5; i++ {
			var sec *colstore.Section
			t = append(t, us(e.rec.timed(p.span, -1, -1, func() { sec, err = colstore.Open(f, 0, p.mode) })))
			if err != nil {
				return err
			}
			if err := sec.Close(); err != nil {
				return err
			}
		}
		e.lay.set(p.metric, median(t))
	}
	return nil
}

// probeLoad restores the fresh engine's snapshot onto the heap and
// mapped. That snapshot journals no writes, so loading it leaves the base
// graph as it is and one generated graph serves every load.
func (e *env) probeLoad(pristine string) error {
	g := e.freshGraph()
	for _, p := range []struct {
		metric, span string
		mode         colstore.Mode
	}{{"core.load_heap_ms", "core.load_heap", colstore.ModeOff}, {"core.load_mmap_ms", "core.load_mmap", colstore.ModeOn}} {
		var t []float64
		for i := 0; i < 5; i++ {
			rss := procStatusKB("VmRSS")
			var eng *core.Engine
			var err error
			t = append(t, e.rec.timed(p.span, -1, -1, func() {
				eng, err = core.LoadFileWith(pristine, g, core.LoadOptions{Mmap: p.mode})
			}).Seconds()*1000)
			if err != nil {
				return err
			}
			if i == 0 && p.mode == colstore.ModeOn {
				e.lay.set("core.load_mmap_rss_mb", float64(procStatusKB("VmRSS")-rss)/1024)
			}
			if err := eng.CloseSnapshot(); err != nil {
				return err
			}
		}
		e.lay.set(p.metric, median(t))
	}
	return nil
}

// probeWAL appends 300-byte records to a log of its own and returns the
// p50 in microseconds.
func (e *env) probeWAL(sync durable.SyncPolicy) (float64, error) {
	w, err := durable.OpenWAL(filepath.Join(e.dir, "wal-"+sync.String()), durable.WALOptions{Sync: sync})
	if err != nil {
		return 0, err
	}
	payload := make([]byte, 300)
	var t []float64
	for i := 0; i < 300; i++ {
		t = append(t, us(e.rec.timed("durable.wal_append_"+sync.String(), -1, i, func() { _, err = w.Append(payload) })))
		if err != nil {
			w.Close()
			return 0, err
		}
	}
	return median(t), w.Close()
}

// probeHTTP prices the HTTP envelope: fresh queries alternate between a
// server's own /experts and the in-process call behind it.
func (e *env) probeHTTP() error {
	d := newHTTPDoor(e.singleURL, "")
	defer d.close()
	var viaHTTP, direct []float64
	for i, q := range e.freshQueries(2*probeN, 6) {
		var err error
		if i%2 == 0 {
			viaHTTP = append(viaHTTP, us(e.rec.timed("probe.http", -1, i, func() { _, err = d.query(i, -1, q.Text) })))
		} else {
			direct = append(direct, us(e.rec.timed("probe.inprocess", -1, i, func() { _, _, err = e.eng.TopExperts(q.Text, topM, topN) })))
		}
		if err != nil {
			return err
		}
	}
	e.lay.set("serve.http_overhead_us", median(viaHTTP)-median(direct))
	return nil
}

// probeShards calls the shard engines directly — retrieve, score, merge —
// for the lower bound on per-shard work, and sends the same queries to
// the router and to one server for the router tax.
func (e *env) probeShards() error {
	queries := e.freshQueries(probeN, 7)
	var retT, scoreT, mergeT []float64
	for i, q := range queries {
		type owned struct {
			shard int
			res   pgindex.Result
		}
		var all []owned
		for si, se := range e.shards {
			var res []pgindex.Result
			var err error
			retT = append(retT, us(e.rec.timed("cluster.shard_retrieve", -1, i, func() {
				res, err = se.Retrieve(context.Background(), q.Text, topM)
			})))
			if err != nil {
				return err
			}
			for _, r := range res {
				all = append(all, owned{si, r})
			}
		}
		sort.Slice(all, func(a, b int) bool {
			if all[a].res.Dist != all[b].res.Dist {
				return all[a].res.Dist < all[b].res.Dist
			}
			return all[a].res.ID < all[b].res.ID
		})
		all = all[:min(topM, len(all))]
		var parts []ta.Partial
		for si, se := range e.shards {
			var req cluster.ExpertsRequest
			for rank, o := range all {
				if o.shard == si {
					req.Papers = append(req.Papers, cluster.RankedPaper{ID: int32(o.res.ID), Rank: rank + 1})
				}
			}
			var resp cluster.ShardExpertsResponse
			var err error
			scoreT = append(scoreT, us(e.rec.timed("cluster.shard_score", -1, i, func() { resp, err = se.ScoreExperts(req) })))
			if err != nil {
				return err
			}
			part := ta.Partial{Threshold: resp.Threshold, Exhausted: resp.Exhausted}
			for _, x := range resp.Experts {
				part.Entries = append(part.Entries, ta.Ranking{Expert: hetgraph.NodeID(x.ID), Score: x.Score})
			}
			parts = append(parts, part)
		}
		mergeT = append(mergeT, us(e.rec.timed("ta.merge", -1, i, func() { ta.MergePartials(parts, topN) })))
	}
	e.lay.set("cluster.shard_retrieve_us", median(retT))
	e.lay.set("cluster.shard_score_us", median(scoreT))
	e.lay.set("ta.merge_us", median(mergeT))

	router, single := newHTTPDoor(e.readURL, ""), newHTTPDoor(e.singleURL, "")
	defer router.close()
	defer single.close()
	var viaRouter, viaSingle []float64
	for i, q := range queries {
		var err error
		viaRouter = append(viaRouter, us(e.rec.timed("probe.router", -1, i, func() { _, err = router.query(i, -1, q.Text) })))
		if err != nil {
			return err
		}
		viaSingle = append(viaSingle, us(e.rec.timed("probe.single", -1, i, func() { _, err = single.query(i, -1, q.Text) })))
		if err != nil {
			return err
		}
	}
	e.lay.set("cluster.router_tax_ratio", median(viaRouter)/median(viaSingle))
	return nil
}

// phaseLayerMetrics turns the readings around the traced run's measured
// phase — p with the recorder off, traced with it on — into the per-layer
// metrics that come from the workload's own operations.
func (e *env) phaseLayerMetrics(ops []op, p, traced phaseResult, before, after counters) {
	off, on := p.latencies(false), traced.latencies(false)
	offP50, onP50 := median(p.quiet(ops).reads), median(traced.quiet(ops).reads)
	e.lay.set("bench.trace_overhead_pct", (onP50-offP50)/offP50*100)
	n := float64(len(p.samples) + len(traced.samples))
	e.lay.set("runtime.allocs_per_op", float64(after.mem.Mallocs-before.mem.Mallocs)/n)
	e.lay.set("runtime.bytes_per_op", float64(after.mem.TotalAlloc-before.mem.TotalAlloc)/n)
	e.lay.set("runtime.gc_pause_ms_total", float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs)/1e6)
	if lookups := after.hits - before.hits + after.misses - before.misses; lookups > 0 {
		e.lay.set("core.cache_hit_ratio", (after.hits-before.hits)/lookups)
	}
	reads := float64(len(off) + len(on))
	if e.spec.door != doorInProcess {
		e.lay.set("serve.response_bytes", float64(p.bytes+traced.bytes)/reads)
	}
	if e.spec.door == doorRouter {
		e.lay.set("cluster.deep_fetch_ratio", (after.deepFetches-before.deepFetches)/reads)
		// The wrappers around the shard servers count only while the
		// recorder is on: the traced half.
		var requests, bytes, busyNs float64
		for _, c := range e.counters {
			requests += float64(c.requests.Load())
			bytes += float64(c.bytes.Load())
			busyNs += float64(c.busyNs.Load())
		}
		q := float64(len(on))
		e.lay.set("cluster.shard_requests_per_query", requests/q)
		e.lay.set("cluster.wire_bytes_per_query", bytes/q)
		e.lay.set("cluster.shard_busy_ms_per_query", busyNs/1e6/q)
	}
}

// probeAddPaper times Engine.AddPaper on an engine restored from the
// final snapshot, which has no WAL attached: the write path without HTTP
// and fsync.
func (e *env) probeAddPaper(snapshot string) error {
	g := e.freshGraph()
	eng, err := core.LoadFileWith(snapshot, g, core.LoadOptions{})
	if err != nil {
		return err
	}
	var t []float64
	failed := 0
	for i, o := range makeWrites(e.ds, e.pool, e.cfg.seed+1, probeN) {
		var err error
		t = append(t, us(e.rec.timed("core.addpaper", -1, i, func() { _, err = eng.AddPaper(o.paper) })))
		if err != nil {
			failed++
		}
	}
	e.check("AddPaper on the restored engine", probeN, failed)
	e.lay.set("core.addpaper_us", median(t))
	return eng.CloseSnapshot()
}

// probeCrashRecovery copies the store as it lies on disk while it is
// still open — the files a kill -9 would leave: the first snapshot and a
// WAL holding every acked write — and recovers from the copy.
func (e *env) probeCrashRecovery() error {
	src, dst := filepath.Join(e.dir, "store"), filepath.Join(e.dir, "crashed")
	if err := copyTree(src, dst); err != nil {
		return err
	}
	g := e.freshGraph()
	var st *core.Store
	var err error
	e.rec.timed("core.crash_recover", -1, -1, func() {
		st, err = core.OpenStore(dst, g, noBuild, core.StoreOptions{Metrics: obs.NewRegistry()})
	})
	if err != nil {
		return err
	}
	info := st.Recovery()
	lost := 0
	if info.Replayed != e.acked {
		lost = 1
		e.res.Notes = append(e.res.Notes, fmt.Sprintf("crash recovery replayed %d records, %d writes were acked", info.Replayed, e.acked))
	}
	e.check("crash recovery replays every acked write", 1, lost)
	if info.Duration > 0 {
		e.lay.set("core.wal_replay_records_per_s", float64(info.Replayed)/info.Duration.Seconds())
	}
	return st.Close()
}

func copyTree(src, dst string) error {
	return filepath.Walk(src, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if fi.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}
