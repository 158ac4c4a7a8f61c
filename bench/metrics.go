package main

import (
	"bytes"
	"encoding/json"
	"math"
)

// metricDef names one metric of the benchmark. The tables below are the
// single source of the names: BENCHMARK.json is printed from them
// (-contract) and a test fails when the two drift.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before -compare calls it a regression; zero on
	// per-layer metrics, which have none.
	Bound float64
	// Def says how the number is measured; Moves, on a per-layer metric,
	// names the end-to-end metric and workload an improvement should move.
	Def   string
	Moves string
}

// minTailSamples is the sample count below which a p99 is not a p99: the
// rule is "the highest percentile with at least ten samples beyond it".
const minTailSamples = 1000

// endToEnd lists what a user of the system sees. Every workload reports
// every one of them (the driver's contract), so each is defined through
// the workload's own front door rather than for one workload only. Only
// numbers that ten runs on this shared host repeat within their bound are
// here; the build's wall time, the p99 of all samples and the write and
// recovery times are measured all the same and reported per layer.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Def: "process start until the first measured operation can be sent: corpus generation, the engine's one core.Build (inside OpenStore on serve_rw), listeners, query pool; on offline that build is the workload"},
	{Name: "query_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		Def: "caller-observed latency of one top-20 expert query through the workload's front door (in-process call, or HTTP including the body read): the measured phase repeats one seeded sequence pass after pass, every read counts at the fastest of its repetitions, and this is the median over the sequence's reads"},
	{Name: "query_qps", Unit: "1/s", Better: "higher", Bound: 0.25,
		Def: "reads the closed-loop clients complete per second when every operation of the sequence, writes included, takes its fastest repetition: clients x reads / sum of those times"},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25,
		Def: "VmHWM of the workload's process at exit"},
	{Name: "snapshot_bytes_per_paper", Unit: "B", Better: "lower", Bound: 0.02,
		Def: "size of the snapshot of the freshly built engine divided by its papers"},
	{Name: "recall_at_m", Unit: "ratio", Better: "higher", Bound: 0.01,
		Def: "share of the exact top-200 papers found in the retrieved top-200, mean over 200 fixed queries (1 by construction where retrieval is the exact scan)"},
	{Name: "map_at_20", Unit: "ratio", Better: "higher", Bound: 0.01,
		Def: "MAP of the top-20 experts against Query.Truth over 300 fixed queries"},
	{Name: "p_at_10", Unit: "ratio", Better: "higher", Bound: 0.01,
		Def: "mean precision at 10 over the same 300 queries"},
}

// perLayer lists the numbers of single layers, measured only in the
// traced run. A layer a workload does not exercise reports 0 there.
var perLayer = []metricDef{
	{Name: "dataset.generate_s", Unit: "s", Better: "lower", Def: "dataset.Generate", Moves: "setup_s @ all (<1 %)"},
	{Name: "textenc.vocab_s", Unit: "s", Better: "lower", Def: "BuildVocab", Moves: "setup_s @ offline; setup_s @ query_exact"},
	{Name: "textenc.pretrain_s", Unit: "s", Better: "lower", Def: "NewEncoder + PretrainDistributional", Moves: "setup_s @ offline; setup_s @ query_exact (largest share)"},
	{Name: "textenc.encode_us", Unit: "us", Better: "lower", Def: "Encoder.Encode(q), p50 over the replay", Moves: "query_p50_ms @ query_pg (~8 %); ~0 @ query_exact"},
	{Name: "textenc.tokens_per_query", Unit: "count", Better: "lower", Def: "Tokenizer.Tokenize(q) length, mean", Moves: "textenc.encode_us"},
	{Name: "kpcore.search_ms_per_seed", Unit: "ms", Better: "lower", Def: "kpcore.SearchMulti over 200 fixed seeds (offline only: the one workload that samples per seed)", Moves: "setup_s @ offline (sampling ~45 %)"},
	{Name: "kpcore.community_size_mean", Unit: "count", Better: "higher", Def: "mean community size over the same seeds", Moves: "sampling.triples"},
	{Name: "kpcore.coreindex_s", Unit: "s", Better: "lower", Def: "kpcore.NewCoreIndex per meta-path, summed", Moves: "setup_s @ query_pg, serve_rw, cluster_2shard"},
	{Name: "sampling.generate_s", Unit: "s", Better: "lower", Def: "sampling.Generate with per-seed Algorithm 1 (the build stage on offline)", Moves: "setup_s @ offline"},
	{Name: "sampling.generate_fast_s", Unit: "s", Better: "lower", Def: "sampling.Generate with UseCoreIndex (the build stage where FastSampling is on)", Moves: "setup_s @ query_pg, serve_rw, cluster_2shard"},
	{Name: "sampling.triples", Unit: "count", Better: "higher", Def: "triples the build stage produced; repeats exactly", Moves: "train.finetune_s"},
	{Name: "train.tokencache_s", Unit: "s", Better: "lower", Def: "BuildTokenCache", Moves: "setup_s @ offline"},
	{Name: "train.finetune_s", Unit: "s", Better: "lower", Def: "FineTune", Moves: "setup_s @ offline (~17 %); setup_s @ query_pg, serve_rw (~45 %)"},
	{Name: "train.triples_per_s", Unit: "1/s", Better: "higher", Def: "triples x epochs / finetune time", Moves: "train.finetune_s"},
	{Name: "train.final_loss", Unit: "loss", Better: "lower", Def: "mean triplet loss of the last epoch; repeats exactly", Moves: "map_at_20, p_at_10 @ all"},
	{Name: "train.embedall_s", Unit: "s", Better: "lower", Def: "EmbedAll", Moves: "setup_s @ all (<1 %)"},
	{Name: "pgindex.build_s", Unit: "s", Better: "lower", Def: "pgindex.BuildWithRand", Moves: "setup_s @ offline (~1 %); setup_s @ query_pg (~4 %)"},
	{Name: "pgindex.edges", Unit: "count", Better: "lower", Def: "Index.NumEdges; repeats exactly", Moves: "pgindex.search_us, snapshot_bytes_per_paper"},
	{Name: "pgindex.memory_bytes", Unit: "B", Better: "lower", Def: "Index.MemoryBytes", Moves: "peak_rss_mb"},
	{Name: "pgindex.search_us", Unit: "us", Better: "lower", Def: "Index.Search(qv, 200, 0), p50 over the replay", Moves: "query_p50_ms, query_qps @ query_pg (~50 %) and serve_rw misses; none @ query_exact"},
	{Name: "pgindex.dist_evals_per_query", Unit: "count", Better: "lower", Def: "SearchStats.DistanceComputations, mean", Moves: "pgindex.search_us"},
	{Name: "pgindex.expansions_per_query", Unit: "count", Better: "lower", Def: "SearchStats.Expansions, mean", Moves: "pgindex.search_us"},
	{Name: "pgindex.visited_fraction", Unit: "ratio", Better: "lower", Def: "SearchStats.NodesVisited / papers, mean", Moves: "pgindex.search_us"},
	{Name: "pgindex.recall_at_m", Unit: "ratio", Better: "higher", Def: "Index.Search against BruteForce over the replay's first 200 queries", Moves: "= recall_at_m (guard: a search speed-up must not lower it)"},
	{Name: "pgindex.bruteforce_ms", Unit: "ms", Better: "lower", Def: "pgindex.BruteForce(embs, qv, 200), p50", Moves: "query_p50_ms @ query_exact (>=95 %) and cluster_2shard; none @ query_pg"},
	{Name: "pgindex.bruteforce_gbps", Unit: "GB/s", Better: "higher", Def: "rows x dim x 4 / bruteforce time; judged against vec.dot32_gbps", Moves: "pgindex.bruteforce_ms"},
	{Name: "pgindex.insert_us", Unit: "us", Better: "lower", Def: "Index.Insert into the staged index, p50 of 200", Moves: "serve.write_p50_ms @ serve_rw, query_pg, offline"},
	{Name: "ta.topexperts_us", Unit: "us", Better: "lower", Def: "ta.TopExperts over the retrieved papers, p50 over the replay", Moves: "query_p50_ms @ query_pg (~40 %); <5 % @ query_exact"},
	{Name: "ta.fullscan_us", Unit: "us", Better: "lower", Def: "ta.TopExpertsFullScan over the same papers, p50", Moves: "what TA saves; reference of the exact check"},
	{Name: "ta.sorted_accesses_per_query", Unit: "count", Better: "lower", Def: "ta.Stats.SortedAccesses, mean", Moves: "ta.topexperts_us"},
	{Name: "ta.depth_mean", Unit: "count", Better: "lower", Def: "ta.Stats.Depth, mean", Moves: "ta.topexperts_us"},
	{Name: "ta.early_termination_ratio", Unit: "ratio", Better: "higher", Def: "share of replayed queries where TA stopped early", Moves: "ta.topexperts_us"},
	{Name: "ta.merge_us", Unit: "us", Better: "lower", Def: "ta.MergePartials over the two shards' complete partial lists, p50", Moves: "query_p50_ms @ cluster_2shard"},
	{Name: "vec.dot32_gbps", Unit: "GB/s", Better: "higher", Def: "Dot32 streamed over the workload's embedding matrix", Moves: "ceiling of pgindex.bruteforce_gbps"},
	{Name: "vec.l2sq32_ns_d64", Unit: "ns", Better: "lower", Def: "L2Sq32 per 64-dim row, same stream", Moves: "pgindex.search_us, pgindex.bruteforce_ms once kernel-bound"},
	{Name: "vec.dot_i8_ns_d64", Unit: "ns", Better: "lower", Def: "DotInt8 per 64-dim row of the quantized matrix", Moves: "pgindex.search_us (candidate scoring)"},
	{Name: "core.query_overhead_us", Unit: "us", Better: "lower", Def: "Engine.TopExperts p50 minus the encode + retrieve + TA stage p50s of the same queries", Moves: "query_p50_ms @ query_pg (locks, spans, copies)"},
	{Name: "core.cache_hit_ratio", Unit: "ratio", Better: "higher", Def: "expertfind_qcache_hits_total / (hits + misses) over the measured phase", Moves: "query_p50_ms, query_qps @ serve_rw; the cache is off elsewhere"},
	{Name: "core.addpaper_us", Unit: "us", Better: "lower", Def: "Engine.AddPaper on an engine restored from the final snapshot, no WAL attached, p50 of 200", Moves: "serve.write_p50_ms @ all"},
	{Name: "core.save_ms", Unit: "ms", Better: "lower", Def: "SaveSnapshot of the freshly built engine to a file", Moves: "core.recovery_s (Close) @ serve_rw"},
	{Name: "core.load_heap_ms", Unit: "ms", Better: "lower", Def: "LoadFileWith(ModeOff), median of 5", Moves: "core.recovery_s @ all"},
	{Name: "core.load_mmap_ms", Unit: "ms", Better: "lower", Def: "LoadFileWith(ModeOn), median of 5", Moves: "core.recovery_s @ all"},
	{Name: "core.load_mmap_rss_mb", Unit: "MiB", Better: "lower", Def: "VmRSS growth across one mapped load", Moves: "peak_rss_mb"},
	{Name: "core.wal_replay_records_per_s", Unit: "1/s", Better: "higher", Def: "OpenStore on a copy of the store taken before Close (the files a kill -9 leaves): RecoveryInfo.Replayed / Duration", Moves: "core.recovery_s @ serve_rw after a crash"},
	{Name: "core.build_unattributed_s", Unit: "s", Better: "lower", Def: "core.build_s minus the sum of the staged pipeline's spans (the issue's offline.unattributed_s)", Moves: "setup_s: time no stage metric explains"},
	{Name: "colstore.write_mbps", Unit: "MB/s", Better: "higher", Def: "WriteSection of the embedding matrix to a file", Moves: "core.save_ms"},
	{Name: "colstore.open_mmap_us", Unit: "us", Better: "lower", Def: "colstore.Open(ModeOn) of that section, median of 5", Moves: "core.load_mmap_ms"},
	{Name: "colstore.open_heap_us", Unit: "us", Better: "lower", Def: "colstore.Open(ModeOff), median of 5", Moves: "core.load_heap_ms"},
	{Name: "durable.wal_append_sync_us", Unit: "us", Better: "lower", Def: "WAL.Append of 300 B under SyncAlways, p50 of 300", Moves: "serve.write_p50_ms @ serve_rw (fsync)"},
	{Name: "durable.wal_append_nosync_us", Unit: "us", Better: "lower", Def: "same under SyncNever", Moves: "serve.write_p50_ms @ serve_rw"},
	{Name: "durable.wal_bytes_per_update", Unit: "B", Better: "lower", Def: "WAL bytes on disk per acked write of the measured phase", Moves: "core.recovery_s @ serve_rw"},
	{Name: "serve.http_overhead_us", Unit: "us", Better: "lower", Def: "HTTP /experts p50 minus in-process p50, same uncached queries", Moves: "query_p50_ms @ serve_rw and cluster_2shard (paid once per hop)"},
	{Name: "serve.response_bytes", Unit: "B", Better: "lower", Def: "mean /experts response body", Moves: "serve.http_overhead_us"},
	{Name: "serve.write_p50_ms", Unit: "ms", Better: "lower", Def: "one new paper sent through the workload's write door until its ack (POST /add with a SyncAlways WAL on serve_rw, POST /add to a shard on cluster_2shard, Engine.AddPaper elsewhere), median; the issue's write_p50_ms, unbounded because sub-millisecond operations spread 10-20 % between runs here", Moves: "what a writer of serve_rw waits for"},
	{Name: "serve.write_p99_ms", Unit: "ms", Better: "lower", Def: "p99 of the same write samples (the issue's write_p99_ms)", Moves: "tail of serve.write_p50_ms @ serve_rw"},
	{Name: "core.recovery_s", Unit: "s", Better: "lower", Def: "persisted state on disk until a reopened engine answers a query: OpenStore on serve_rw, LoadFileWith of a snapshot holding every acked write elsewhere, median of 9 reopenings; the issue's recovery_s, unbounded because a 30 ms reopening spreads 12-20 % between runs here", Moves: "restart time @ serve_rw"},
	{Name: "cluster.router_tax_ratio", Unit: "ratio", Better: "lower", Def: "router p50 / single-node-over-HTTP p50, same engine and queries", Moves: "query_p50_ms @ cluster_2shard (ROADMAP target <= 3)"},
	{Name: "cluster.shard_requests_per_query", Unit: "count", Better: "lower", Def: "requests counted by a wrapper around each shard's handler / queries", Moves: "query_p50_ms, query_qps @ cluster_2shard (rounds are sequential)"},
	{Name: "cluster.wire_bytes_per_query", Unit: "B", Better: "lower", Def: "response bytes counted by the same wrapper / queries", Moves: "query_p50_ms @ cluster_2shard"},
	{Name: "cluster.shard_busy_ms_per_query", Unit: "ms", Better: "lower", Def: "time inside the shard handlers / queries", Moves: "query_p50_ms @ cluster_2shard (<15 %)"},
	{Name: "cluster.deep_fetch_ratio", Unit: "ratio", Better: "lower", Def: "expertfind_cluster_deep_fetches_total / queries", Moves: "query_p50_ms, core.query_p99_ms @ cluster_2shard"},
	{Name: "cluster.shard_retrieve_us", Unit: "us", Better: "lower", Def: "ShardEngine.Retrieve called directly, p50", Moves: "lower bound of per-shard work @ cluster_2shard"},
	{Name: "cluster.shard_score_us", Unit: "us", Better: "lower", Def: "ShardEngine.ScoreExperts called directly, p50", Moves: "lower bound of per-shard work @ cluster_2shard"},
	{Name: "core.build_s", Unit: "s", Better: "lower", Def: "wall time of the workload's one core.Build call; the issue's build_s, unbounded because one 8-14 s call cannot be repeated inside a run and spreads up to 29 % between runs here", Moves: "setup_s @ all (all of it on offline)"},
	{Name: "core.query_p99_ms", Unit: "ms", Better: "lower", Def: "p99 of every read of the measured phase as the clock saw it (the highest percentile with ten samples beyond it where there are fewer than 1000); the issue's query_p99_ms, unbounded because on this host the tail is the neighbours' (spread 16-45 %)", Moves: "tail of query_p50_ms @ all"},
	{Name: "bench.raw_query_p50_ms", Unit: "ms", Better: "lower", Def: "median of every read of the measured phase as the clock saw it, interference included", Moves: "query_p50_ms: how far the host moved it"},
	{Name: "bench.raw_query_qps", Unit: "1/s", Better: "higher", Def: "reads of the measured phase / its wall time, interference and the harness's own work between operations included", Moves: "query_qps: how far the host moved it"},
	{Name: "bench.passes", Unit: "count", Better: "higher", Def: "passes over the sequence the measured phase made: the repetitions behind every fastest-of", Moves: "steadiness of query_p50_ms, query_qps"},
	{Name: "runtime.allocs_per_op", Unit: "count", Better: "lower", Def: "MemStats.Mallocs delta over the measured phase / operations", Moves: "core.query_p99_ms, peak_rss_mb @ all"},
	{Name: "runtime.bytes_per_op", Unit: "B", Better: "lower", Def: "MemStats.TotalAlloc delta / operations", Moves: "core.query_p99_ms, peak_rss_mb @ all"},
	{Name: "runtime.gc_pause_ms_total", Unit: "ms", Better: "lower", Def: "MemStats.PauseTotalNs delta over the measured phase", Moves: "core.query_p99_ms @ all"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower", Def: "(query p50 with the recorder on - off) / off, two halves of one measured phase", Moves: "the cost of the traced run itself"},
}

// metricValue is one measured number as the driver reads it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects the values of one run against a definition table.
type metricSet struct {
	defs   []metricDef
	values map[string]float64
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: make(map[string]float64, len(defs))}
}

// set records v under name; a name missing from the table is a bug in
// the harness and panics.
func (m *metricSet) set(name string, v float64) {
	for _, d := range m.defs {
		if d.Name == name {
			m.values[name] = v
			return
		}
	}
	panic("bench: metric " + name + " is not in the table")
}

// export returns every metric of the table, unset ones as 0, and the
// names whose value is not a finite number.
func (m *metricSet) export() (out map[string]metricValue, bad []string) {
	out = make(map[string]metricValue, len(m.defs))
	for _, d := range m.defs {
		v := m.values[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			bad = append(bad, d.Name)
			v = 0
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, bad
}

// contractJSON renders BENCHMARK.json from the tables.
func contractJSON() []byte {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"sh", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, s := range workloads {
		doc.Workloads = append(doc.Workloads, wl{s.name, s.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false) // a why may say ">="
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		panic(err)
	}
	return b.Bytes()
}
