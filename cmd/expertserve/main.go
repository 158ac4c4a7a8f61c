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
//	          comes back, with retries, replica health ejection and, with
//	          -hedge-after > 0, a hedge to a second replica past that delay
//
// Logs go to stderr as log/slog text lines at -log-level and above, one
// access line per request (time=... level=INFO msg=access req_id=...).
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
	"log/slog"
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
)

// The flag set. A role reads the flags it needs; the comments in the help
// text name the role a flag belongs to.
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
	hedgeAfter   = flag.Duration("hedge-after", 0, "hedge a slow shard sub-request to another replica after this delay (0 = off) (role router)")
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

// node is what every role starts from: the process's signal context, its
// already-listening gate, and the parsed settings more than one role uses.
type node struct {
	ctx     context.Context
	gate    *serve.Gate
	servErr chan error // the listener's exit
	reg     *obs.Registry
	log     *slog.Logger
	sync    durable.SyncPolicy
	mmap    colstore.Mode
}

func main() {
	flag.Parse()

	var lvl slog.Level
	err := lvl.UnmarshalText([]byte(*logLevel))
	if err != nil {
		fail(fmt.Errorf("-log-level: %w", err))
	}
	n := &node{gate: serve.NewGate(), servErr: make(chan error, 1), reg: obs.Default(),
		log: slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl}))}

	if *dataDir != "" && (*engineFile != "" || *saveFile != "") {
		fail(fmt.Errorf("-data-dir owns engine persistence; it cannot be combined with -engine or -save"))
	}
	if n.sync, err = durable.ParseSyncPolicy(*fsyncPolicy); err != nil {
		fail(err)
	}
	if n.mmap, err = colstore.ParseMode(*mmapMode); err != nil {
		fail(err)
	}

	// Residency gauges (RSS, page faults) on /metrics: with an mmap'd
	// snapshot these — not the Go heap profile — show the true footprint.
	stopProcSampler := obs.StartProcSampler(n.reg, 10*time.Second)
	defer stopProcSampler()

	// Open the listener before recovery: load balancers immediately get
	// an honest /readyz 503 instead of connection-refused, and flip to
	// 200 only once the engine is recovered and WAL replay is complete.
	var stop context.CancelFunc
	n.ctx, stop = signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		n.servErr <- n.gate.ListenAndServeContext(n.ctx, *addr, *drainTO, nil, n.reg, n.log)
	}()
	n.log.Info("listening", "addr", *addr, "role", *role, "ready", false)

	switch *role {
	case "single", "shard":
		err = n.runNode()
	case "follower":
		err = n.runFollower()
	case "router":
		err = n.runRouter()
	default:
		err = fmt.Errorf("unknown -role %q (want single, shard, follower, or router)", *role)
	}
	if err != nil {
		fail(err)
	}
}

// runRouter serves scatter-gather over the configured shard replicas. The
// router holds no corpus: the whole offline pipeline is skipped.
func (n *node) runRouter() error {
	topo, err := parseReplicas(*replicas)
	if err != nil {
		return err
	}
	client, err := cluster.NewShardClient(topo, cluster.ClientConfig{
		Retries:       *shardRetries,
		HedgeAfter:    *hedgeAfter,
		EjectAfter:    *ejectAfter,
		ProbeInterval: *probeEvery,
	}, n.reg, n.log)
	if err != nil {
		return err
	}
	client.StartProbes(n.ctx)
	router := cluster.NewRouter(client, cluster.RouterConfig{
		QueryTimeout: *queryTO,
	}, n.reg, n.log)
	router.Traces = newTraceStore()
	router.SlowQuery = *slowQuery
	n.gate.Install(router)
	n.log.Info("serving", "addr", *addr, "role", "router",
		"shards", client.NumShards(), "hedge_after", *hedgeAfter,
		"query_timeout", *queryTO)
	return n.serveUntilDone(router.SetReady, "", nil)
}

// runFollower serves reads from a replica of the -leader node. A follower
// holds no authority over the corpus: it bootstraps from the leader's
// snapshot, tails the leader's WAL, and refuses writes until
// POST /replication/promote.
func (n *node) runFollower() error {
	if *leaderURL == "" {
		return fmt.Errorf("-role follower requires -leader")
	}
	if *dataDir == "" {
		return fmt.Errorf("-role follower requires -data-dir")
	}
	g, err := cli.LoadGraph(*graphFile, *preset, *papers)
	if err != nil {
		return err
	}
	fo, err := core.OpenFollower(*dataDir, g, *leaderURL, core.FollowerOptions{
		ID:           *followerID,
		PollInterval: *replPoll,
		MaxLag:       *maxLag,
		Sync:         n.sync,
		SyncEvery:    *fsyncEvery,
		SegmentBytes: *walSegBytes,
		Mmap:         n.mmap,
		Metrics:      n.reg,
		Logger:       n.log,
	})
	if err != nil {
		return err
	}
	srv := n.newServer(fo.Engine())
	if *shards > 0 {
		// Follower of a shard server: same shard API, replicated engine.
		se, err := newShardEngine(fo.Engine())
		if err != nil {
			return err
		}
		cluster.MountFollowerShard(srv, se, fo)
	} else {
		srv.SetTopology(serve.Topology{Role: "follower"})
		serve.ServeReadOnly(srv, fo)
	}
	serve.MountReplication(srv, fo.Store(), fo)
	fo.Start()
	if *snapInterval > 0 {
		fo.Store().StartSnapshotLoop(*snapInterval)
	}
	n.gate.Install(srv)
	srv.SetReady(true) // actual readiness still gated by ReadyProbe (lag)
	n.log.Info("serving", "addr", *addr, "role", "follower",
		"leader", *leaderURL, "max_lag", *maxLag, "applied", fo.Store().LastSeq())
	return n.serveUntilDone(srv.SetReady, "follower", fo.Close)
}

// runNode serves a whole corpus (role single) or one slice of it to a
// router (role shard) from an engine that is recovered from -data-dir,
// loaded from -engine, or built.
func (n *node) runNode() error {
	g, err := cli.LoadGraph(*graphFile, *preset, *papers)
	if err != nil {
		return err
	}
	build := func() (*core.Engine, error) {
		n.log.Info("build_start", "papers", g.NumNodesOfType(hetgraph.Paper),
			"dim", *dim, "seed", *seed)
		engine, err := core.Build(g, core.Options{Dim: *dim, Seed: *seed})
		if err != nil {
			return nil, err
		}
		st := engine.Stats()
		n.log.Info("build_done",
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
			Sync:         n.sync,
			SyncEvery:    *fsyncEvery,
			SegmentBytes: *walSegBytes,
			Mmap:         n.mmap,
			Metrics:      n.reg,
			Logger:       n.log,
		})
		if err != nil {
			return err
		}
		engine = store.Engine()
		rec := store.Recovery()
		n.log.Info("recovered",
			"dir", *dataDir,
			"snapshot_loaded", rec.SnapshotLoaded,
			"snapshot_seq", rec.SnapshotSeq,
			"wal_replayed", rec.Replayed,
			"torn_wal_tail", rec.TornWALTail,
			"mmap", rec.SnapshotMapped,
			"fsync", n.sync.String(),
			"duration", rec.Duration,
		)
		if *snapInterval > 0 {
			store.StartSnapshotLoop(*snapInterval)
			n.log.Info("snapshot_loop_started", "interval", *snapInterval)
		}
	case *engineFile != "":
		engine, err = core.LoadFileWith(*engineFile, g, core.LoadOptions{Mmap: n.mmap})
		if err != nil {
			return err
		}
		n.log.Info("engine_loaded", "file", *engineFile, "mmap", engine.SnapshotMapped())
	default:
		if engine, err = build(); err != nil {
			return err
		}
	}
	if *saveFile != "" {
		f, err := os.Create(*saveFile)
		if err != nil {
			return err
		}
		if err := engine.Save(f); err != nil {
			return err
		}
		f.Close()
		n.log.Info("engine_saved", "file", *saveFile)
	}

	srv := n.newServer(engine)
	if *role == "shard" {
		se, err := newShardEngine(engine)
		if err != nil {
			return err
		}
		cluster.MountShard(srv, se)
		n.log.Info("shard_mounted", "shard_id", *shardID, "shards", *shards,
			"owned_papers", se.NumOwned())
	}
	var closeStore func() error
	if store != nil {
		// A durable node can lead: expose the replication surface so
		// followers bootstrap from its snapshot and tail its WAL.
		serve.MountReplication(srv, store, nil)
		n.log.Info("replication_mounted", "epoch", store.Epoch(), "last_seq", store.LastSeq())
		// Final snapshot + WAL close: everything acknowledged is then in
		// the snapshot and the next boot replays nothing.
		closeStore = store.Close
	}
	n.gate.Install(srv)
	srv.SetReady(true)
	n.log.Info("serving", "addr", *addr, "role", *role, "ready", true,
		"query_timeout", *queryTO, "max_inflight", *maxInflight, "durable", *dataDir != "")
	return n.serveUntilDone(srv.SetReady, "store", closeStore)
}

// newServer wires a server over engine from the serving flags every
// corpus-holding role shares: query cache, deadline, shedding, traces,
// slow-query log, pprof.
func (n *node) newServer(engine *core.Engine) *serve.Server {
	if *queryCache > 0 {
		engine.EnableQueryCache(core.CacheConfig{MaxEntries: *queryCache, TTL: *queryTTL})
		n.log.Info("query_cache_enabled", "entries", *queryCache, "ttl", *queryTTL)
	}
	srv := serve.New(engine)
	srv.Log = n.log
	srv.QueryTimeout = *queryTO
	srv.MaxInFlight = *maxInflight
	srv.Traces = newTraceStore()
	srv.SlowQuery = *slowQuery
	if *enablePprof {
		srv.EnablePprof()
		n.log.Info("pprof_enabled", "path", "/debug/pprof/")
	}
	return srv
}

// newShardEngine views engine as slice -shard-id of -shards.
func newShardEngine(engine *core.Engine) (*cluster.ShardEngine, error) {
	idxCfg := pgindex.DefaultConfig()
	idxCfg.Seed = *seed
	return cluster.NewShardEngine(engine, cluster.ShardConfig{
		ID: *shardID, Of: *shards, Index: idxCfg, UsePGIndex: true,
	})
}

// serveUntilDone blocks until SIGINT/SIGTERM cancels ctx (the gate then
// drains the listener) or the listener itself fails. Readiness flips off
// first so probes stop routing here while in-flight requests finish; then
// closeState, if the role has durable state (what names it in the log),
// puts it away. The first error of the two is returned.
func (n *node) serveUntilDone(setReady func(bool), what string, closeState func() error) error {
	var err error
	select {
	case err = <-n.servErr:
	case <-n.ctx.Done():
		setReady(false)
		err = <-n.servErr
	}
	if err != nil {
		n.log.Error("listener_failed", "err", err)
	}
	if closeState != nil {
		if cerr := closeState(); cerr != nil {
			n.log.Error(what+"_close_failed", "err", cerr)
			if err == nil {
				err = cerr
			}
		} else {
			n.log.Info(what+"_closed", "dir", *dataDir)
		}
	}
	n.log.Info("shutdown_complete")
	return err
}

// newTraceStore builds the trace ring from the -trace-* flags; capacity
// 0 turns trace retention off entirely (nil store, /debug/traces 404s).
func newTraceStore() *obs.TraceStore {
	if *traceCap <= 0 {
		return nil
	}
	return obs.NewTraceStore(obs.TracePolicy{
		Capacity:    *traceCap,
		SlowestN:    *traceSlowest,
		SampleEvery: *traceSample,
	})
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
