// Command expertserve builds (or loads) an expert-finding engine and
// serves top-n expert queries over HTTP, separating the paper's offline
// stage from a long-lived online stage.
//
// Endpoints:
//
//	GET  /experts?q=<text>&n=<count>&m=<papers> -> JSON expert ranking
//	GET  /papers?q=<text>&m=<count>             -> JSON paper retrieval
//	GET  /similar?id=<paper>&m=<count>          -> JSON related papers
//	POST /add                                   -> accept one paper online
//	GET  /healthz                               -> liveness + build statistics
//	GET  /readyz                                -> readiness (503 while recovering)
//	GET  /metrics                               -> Prometheus text metrics
//	GET  /debug/vars                            -> JSON metrics snapshot
//	GET  /debug/traces[/{id}]                   -> retained distributed traces
//	GET  /debug/pprof/*                         -> profiling (with -pprof)
//
// With -data-dir the engine state is durable: a checksummed snapshot
// plus a write-ahead log live under that directory, every acknowledged
// POST /add is recorded before it is applied, and a restart — including
// kill -9 — recovers exactly the acknowledged state. The listener opens
// before recovery so /readyz honestly reports 503 until replay is done.
//
// Snapshots carry a columnar section holding the embedding matrix and
// the proximity-graph index. With -mmap auto (the default) that section
// is served zero-copy from the page cache via mmap, so corpora larger
// than RAM stay queryable; -mmap off forces the heap decode and -mmap
// on fails fast where the platform cannot map. Rankings are bit-for-bit
// identical either way.
//
// The -role flag selects the process's place in a sharded topology:
//
//	single    (default) the whole corpus in one process, as above
//	shard     same build, but also serves the internal /shard/papers route
//	          (its slice's top-m papers with their author lists, as a
//	          binary frame) for the router (-shards total, -shard-id this
//	          one)
//	follower  read replica: bootstraps from the -leader node's snapshot,
//	          tails its WAL (resumable, log-before-apply), serves reads
//	          once lag <= -max-replication-lag, refuses writes until
//	          promoted via POST /replication/promote
//	router    no corpus: scatters /experts and /papers once across the
//	          shard replicas given by -replicas, merges and ranks what
//	          comes back, with retries, hedging and replica health ejection
//
// Usage:
//
//	expertserve -dataset aminer -papers 1000 -addr :8080
//	expertserve -graph g.json -data-dir /var/lib/expertfind -addr :8080
//	expertserve -role shard -shards 4 -shard-id 2 -graph g.json -addr :8082
//	expertserve -role router -replicas 'h1:8081|h1:9081,h2:8082' -addr :8080
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"expertfind/internal/cli"
	"expertfind/internal/cluster"
	"expertfind/internal/colstore"
	"expertfind/internal/core"
	"expertfind/internal/durable"
	"expertfind/internal/hetgraph"
	"expertfind/internal/obs"
	"expertfind/internal/pgindex"
	"expertfind/internal/serve"
	"expertfind/internal/ta"
	"expertfind/internal/train"
)

func main() {
	var (
		graphFile   = flag.String("graph", "", "JSON graph file (from datagen)")
		engineFile  = flag.String("engine", "", "saved engine file (from a previous -save)")
		saveFile    = flag.String("save", "", "save the built engine to this file and continue serving")
		preset      = flag.String("dataset", "aminer", "built-in preset when -graph is not given")
		papers      = flag.Int("papers", 1000, "preset size in papers")
		dim         = flag.Int("dim", 64, "embedding dimension")
		seed        = flag.Int64("seed", 7, "random seed")
		addr        = flag.String("addr", ":8080", "listen address")
		logLevel    = flag.String("log-level", "info", "log level: debug, info, warn, error")
		enablePprof = flag.Bool("pprof", false, "mount profiling handlers under /debug/pprof/")

		queryCache  = flag.Int("query-cache", 4096, "query-cache entries (0 disables caching)")
		queryTTL    = flag.Duration("query-cache-ttl", 5*time.Minute, "query-cache entry TTL (0 = no expiry)")
		queryTO     = flag.Duration("query-timeout", 2*time.Second, "per-request query deadline, 504 past it (0 = none)")
		maxInflight = flag.Int("max-inflight", 256, "concurrent query requests before shedding 503 (0 = unlimited)")

		traceCap     = flag.Int("trace-capacity", 512, "retained traces in the /debug/traces ring (0 disables trace retention)")
		traceSample  = flag.Int("trace-sample", 64, "tail sampling: keep 1 in N ordinary traces (negative disables the rule)")
		traceSlowest = flag.Int("trace-slowest", 32, "tail sampling: always keep a trace ranking among the N slowest retained (negative disables the rule)")
		slowQuery    = flag.Duration("slow-query", 0, "log any request at least this slow with its trace id (0 disables)")

		role         = flag.String("role", "single", "topology role: single, shard, follower, or router")
		shards       = flag.Int("shards", 0, "total shard count of the topology (role shard)")
		shardID      = flag.Int("shard-id", 0, "this shard's index in [0, shards) (role shard)")
		leaderURL    = flag.String("leader", "", "leader base URL to replicate from, e.g. http://host:8080 (role follower)")
		maxLag       = flag.Uint64("max-replication-lag", 0, "largest lag (in WAL sequences) at which a follower still reports ready (role follower)")
		replPoll     = flag.Duration("replication-poll", 200*time.Millisecond, "tail poll interval once caught up (role follower)")
		followerID   = flag.String("follower-id", "", "identity reported to the leader for low-water tracking; default hostname-pid (role follower)")
		replicas     = flag.String("replicas", "", "shard replica addresses: shards comma-separated, replicas of one shard separated by '|' (role router)")
		hedgeAfter   = flag.Duration("hedge-after", 0, "hedge a slow shard sub-request to another replica after this delay; 0 derives it from the observed p99, negative disables (role router)")
		probeEvery   = flag.Duration("probe-interval", 2*time.Second, "health-probe period for ejected replicas (role router)")
		ejectAfter   = flag.Int("eject-after", 3, "consecutive sub-request failures before a replica is ejected (role router)")
		shardRetries = flag.Int("shard-retries", 2, "retries per shard sub-request (role router)")

		dataDir      = flag.String("data-dir", "", "durable state directory: snapshot + write-ahead log (enables crash recovery)")
		mmapMode     = flag.String("mmap", "auto", "serve embeddings from the mmap'd snapshot: auto, on, off")
		snapInterval = flag.Duration("snapshot-interval", 5*time.Minute, "background snapshot period with -data-dir (0 disables)")
		fsyncPolicy  = flag.String("fsync", "always", "WAL fsync policy: always, interval, never")
		fsyncEvery   = flag.Duration("fsync-interval", 50*time.Millisecond, "flush period under -fsync interval")
		walSegBytes  = flag.Int64("wal-segment-bytes", 4<<20, "WAL segment size before rotation")
		drainTO      = flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown drain window for in-flight requests")
	)
	flag.Parse()

	lvl, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fail(err)
	}
	logger := obs.NewLogger(os.Stderr, lvl)

	if *dataDir != "" && (*engineFile != "" || *saveFile != "") {
		fail(fmt.Errorf("-data-dir owns engine persistence; it cannot be combined with -engine or -save"))
	}
	syncPolicy, err := durable.ParseSyncPolicy(*fsyncPolicy)
	if err != nil {
		fail(err)
	}
	mmap, err := colstore.ParseMode(*mmapMode)
	if err != nil {
		fail(err)
	}

	// Wire the metrics sinks before the build so the offline phases
	// (sampling, training epochs, indexing) are recorded too.
	reg := obs.Default()
	obs.RegisterWellKnown(reg)
	pgindex.SetSink(reg)
	ta.SetSink(reg)
	train.SetSink(reg)

	// Residency gauges (RSS, page faults) on /metrics: with an mmap'd
	// snapshot these — not the Go heap profile — show the true footprint.
	stopProcSampler := obs.StartProcSampler(reg, 10*time.Second)
	defer stopProcSampler()

	// Open the listener before recovery: load balancers immediately get
	// an honest /readyz 503 instead of connection-refused, and flip to
	// 200 only once the engine is recovered and WAL replay is complete.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	gate := serve.NewGate()
	servErr := make(chan error, 1)
	go func() {
		servErr <- gate.ListenAndServeContext(ctx, *addr, *drainTO, nil, reg, logger)
	}()
	logger.Info("listening", "addr", *addr, "role", *role, "ready", false)

	switch *role {
	case "single", "shard", "follower":
	case "router":
		// The router holds no corpus: skip the whole offline pipeline and
		// serve scatter-gather over the configured shard replicas.
		topo, err := parseReplicas(*replicas)
		if err != nil {
			fail(err)
		}
		client, err := cluster.NewShardClient(topo, cluster.ClientConfig{
			Retries:       *shardRetries,
			HedgeAfter:    *hedgeAfter,
			EjectAfter:    *ejectAfter,
			ProbeInterval: *probeEvery,
		}, reg, logger)
		if err != nil {
			fail(err)
		}
		client.StartProbes(ctx)
		router := cluster.NewRouter(client, cluster.RouterConfig{
			QueryTimeout: *queryTO,
		}, reg, logger)
		router.Traces = newTraceStore(*traceCap, *traceSlowest, *traceSample, reg)
		router.SlowQuery = *slowQuery
		gate.Install(router)
		logger.Info("serving", "addr", *addr, "role", "router",
			"shards", client.NumShards(), "hedge_after", *hedgeAfter,
			"query_timeout", *queryTO)
		select {
		case err = <-servErr:
		case <-ctx.Done():
			router.SetReady(false)
			err = <-servErr
		}
		if err != nil {
			logger.Error("listener_failed", "err", err)
			fail(err)
		}
		logger.Info("shutdown_complete")
		return
	default:
		fail(fmt.Errorf("unknown -role %q (want single, shard, follower, or router)", *role))
	}

	g, err := cli.LoadGraph(*graphFile, *preset, *papers)
	if err != nil {
		fail(err)
	}

	if *role == "follower" {
		// A follower holds no authority over the corpus: it bootstraps
		// from the leader's snapshot, tails the leader's WAL, and serves
		// reads from the replicated engine. Writes are refused until
		// POST /replication/promote.
		if *leaderURL == "" {
			fail(fmt.Errorf("-role follower requires -leader"))
		}
		if *dataDir == "" {
			fail(fmt.Errorf("-role follower requires -data-dir"))
		}
		obs.RegisterReplication(reg)
		fo, err := core.OpenFollower(*dataDir, g, *leaderURL, core.FollowerOptions{
			ID:           *followerID,
			PollInterval: *replPoll,
			MaxLag:       *maxLag,
			Sync:         syncPolicy,
			SyncEvery:    *fsyncEvery,
			SegmentBytes: *walSegBytes,
			Mmap:         mmap,
			Metrics:      reg,
			Logger:       logger,
		})
		if err != nil {
			fail(err)
		}
		engine := fo.Engine()
		if *queryCache > 0 {
			engine.EnableQueryCache(core.CacheConfig{MaxEntries: *queryCache, TTL: *queryTTL})
		}
		srv := serve.New(engine)
		srv.Log = logger
		srv.QueryTimeout = *queryTO
		srv.MaxInFlight = *maxInflight
		srv.Traces = newTraceStore(*traceCap, *traceSlowest, *traceSample, reg)
		srv.SlowQuery = *slowQuery
		if *enablePprof {
			srv.EnablePprof()
		}
		if *shards > 0 {
			// Follower of a shard server: same shard API, replicated engine.
			idxCfg := pgindex.DefaultConfig()
			idxCfg.Seed = *seed
			se, err := cluster.NewShardEngine(engine, cluster.ShardConfig{
				ID: *shardID, Of: *shards, Index: idxCfg, UsePGIndex: true,
			})
			if err != nil {
				fail(err)
			}
			cluster.MountFollowerShard(srv, se, fo)
		} else {
			srv.SetTopology(serve.Topology{Role: "follower"})
			srv.ReadyProbe = func() (bool, string) {
				if fo.Ready() {
					return true, ""
				}
				return false, "replication_lag"
			}
			srv.DenyWrites("replication follower serves reads only; write to the leader")
		}
		serve.MountReplication(srv, fo.Store(), fo)
		fo.Start()
		if *snapInterval > 0 {
			fo.Store().StartSnapshotLoop(*snapInterval)
		}
		gate.Install(srv)
		srv.SetReady(true) // actual readiness still gated by ReadyProbe (lag)
		logger.Info("serving", "addr", *addr, "role", "follower",
			"leader", *leaderURL, "max_lag", *maxLag, "applied", fo.Store().LastSeq())
		select {
		case err = <-servErr:
		case <-ctx.Done():
			srv.SetReady(false)
			err = <-servErr
		}
		if err != nil {
			logger.Error("listener_failed", "err", err)
		}
		if cerr := fo.Close(); cerr != nil {
			logger.Error("follower_close_failed", "err", cerr)
			if err == nil {
				err = cerr
			}
		} else {
			logger.Info("follower_closed", "dir", *dataDir)
		}
		logger.Info("shutdown_complete")
		if err != nil {
			fail(err)
		}
		return
	}

	build := func() (*core.Engine, error) {
		logger.Info("build_start", "papers", g.NumNodesOfType(hetgraph.Paper),
			"dim", *dim, "seed", *seed)
		engine, err := core.Build(g, core.Options{Dim: *dim, Seed: *seed})
		if err != nil {
			return nil, err
		}
		st := engine.Stats()
		logger.Info("build_done",
			"total", st.TotalTime,
			"sampling", st.CommunityTime,
			"training", st.TrainTime,
			"embedding", st.EmbedTime,
			"indexing", st.IndexTime,
			"vocab", st.VocabSize,
			"index_edges", st.IndexEdges,
		)
		return engine, nil
	}

	var engine *core.Engine
	var store *core.Store
	switch {
	case *dataDir != "":
		store, err = core.OpenStore(*dataDir, g, build, core.StoreOptions{
			Sync:         syncPolicy,
			SyncEvery:    *fsyncEvery,
			SegmentBytes: *walSegBytes,
			Mmap:         mmap,
			Metrics:      reg,
			Logger:       logger,
		})
		if err != nil {
			fail(err)
		}
		engine = store.Engine()
		rec := store.Recovery()
		logger.Info("recovered",
			"dir", *dataDir,
			"snapshot_loaded", rec.SnapshotLoaded,
			"snapshot_seq", rec.SnapshotSeq,
			"wal_replayed", rec.Replayed,
			"torn_wal_tail", rec.TornWALTail,
			"mmap", rec.SnapshotMapped,
			"fsync", syncPolicy.String(),
			"duration", rec.Duration,
		)
		if *snapInterval > 0 {
			store.StartSnapshotLoop(*snapInterval)
			logger.Info("snapshot_loop_started", "interval", *snapInterval)
		}
	case *engineFile != "":
		engine, err = core.LoadFileWith(*engineFile, g, core.LoadOptions{Mmap: mmap})
		if err != nil {
			fail(err)
		}
		logger.Info("engine_loaded", "file", *engineFile, "mmap", engine.SnapshotMapped())
	default:
		engine, err = build()
		if err != nil {
			fail(err)
		}
	}
	if *saveFile != "" {
		f, err := os.Create(*saveFile)
		if err != nil {
			fail(err)
		}
		if err := engine.Save(f); err != nil {
			fail(err)
		}
		f.Close()
		logger.Info("engine_saved", "file", *saveFile)
	}

	if *queryCache > 0 {
		engine.EnableQueryCache(core.CacheConfig{MaxEntries: *queryCache, TTL: *queryTTL})
		logger.Info("query_cache_enabled", "entries", *queryCache, "ttl", *queryTTL)
	}

	srv := serve.New(engine)
	srv.Log = logger
	srv.QueryTimeout = *queryTO
	srv.MaxInFlight = *maxInflight
	srv.Traces = newTraceStore(*traceCap, *traceSlowest, *traceSample, reg)
	srv.SlowQuery = *slowQuery
	if *enablePprof {
		srv.EnablePprof()
		logger.Info("pprof_enabled", "path", "/debug/pprof/")
	}
	if *role == "shard" {
		idxCfg := pgindex.DefaultConfig()
		idxCfg.Seed = *seed
		se, err := cluster.NewShardEngine(engine, cluster.ShardConfig{
			ID:         *shardID,
			Of:         *shards,
			Index:      idxCfg,
			UsePGIndex: true,
		})
		if err != nil {
			fail(err)
		}
		cluster.MountShard(srv, se)
		logger.Info("shard_mounted", "shard_id", *shardID, "shards", *shards,
			"owned_papers", se.NumOwned())
	}
	if store != nil {
		// A durable node can lead: expose the replication surface so
		// followers bootstrap from its snapshot and tail its WAL.
		obs.RegisterReplication(reg)
		serve.MountReplication(srv, store, nil)
		logger.Info("replication_mounted", "epoch", store.Epoch(), "last_seq", store.LastSeq())
	}
	gate.Install(srv)
	srv.SetReady(true)
	logger.Info("serving", "addr", *addr, "role", *role, "ready", true,
		"query_timeout", *queryTO, "max_inflight", *maxInflight, "durable", *dataDir != "")

	// Block until SIGINT/SIGTERM cancels ctx (the gate then drains the
	// listener) or the listener itself fails. Readiness flips off first
	// so probes stop routing here while in-flight requests finish.
	err = func() error {
		select {
		case err := <-servErr:
			return err
		case <-ctx.Done():
			srv.SetReady(false)
			return <-servErr
		}
	}()
	if err != nil {
		logger.Error("listener_failed", "err", err)
	}
	if store != nil {
		// Final snapshot + WAL close: everything acknowledged is now in
		// the snapshot and the next boot replays nothing.
		if cerr := store.Close(); cerr != nil {
			logger.Error("store_close_failed", "err", cerr)
			if err == nil {
				err = cerr
			}
		} else {
			logger.Info("store_closed", "dir", *dataDir)
		}
	}
	logger.Info("shutdown_complete")
	if err != nil {
		fail(err)
	}
}

// newTraceStore builds the trace ring from the -trace-* flags; capacity
// 0 turns trace retention off entirely (nil store, /debug/traces 404s).
func newTraceStore(capacity, slowest, sample int, reg *obs.Registry) *obs.TraceStore {
	if capacity <= 0 {
		return nil
	}
	return obs.NewTraceStore(obs.TracePolicy{
		Capacity:    capacity,
		SlowestN:    slowest,
		SampleEvery: sample,
	}, reg)
}

// parseReplicas decodes the -replicas grammar: shards separated by
// commas, replicas of one shard separated by '|'.
//
//	"h1:8081|h1:9081,h2:8082" -> shard 0 with two replicas, shard 1 with one
func parseReplicas(s string) ([][]string, error) {
	if s == "" {
		return nil, fmt.Errorf("-role router requires -replicas")
	}
	var out [][]string
	for i, shard := range strings.Split(s, ",") {
		var addrs []string
		for _, a := range strings.Split(shard, "|") {
			a = strings.TrimSpace(a)
			if a != "" {
				addrs = append(addrs, a)
			}
		}
		if len(addrs) == 0 {
			return nil, fmt.Errorf("-replicas: shard %d has no addresses", i)
		}
		out = append(out, addrs)
	}
	return out, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "expertserve:", err)
	os.Exit(1)
}
