package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"expertfind/internal/cluster"
	"expertfind/internal/core"
	"expertfind/internal/dataset"
	"expertfind/internal/hetgraph"
	"expertfind/internal/obs"
	"expertfind/internal/serve"
)

// runConfig is what the command line decides about one run.
type runConfig struct {
	seed int64
	// seconds bounds the measured phase by time; 0 bounds it by passes
	// over the workload's sequence instead.
	seconds float64
	traced  bool
	// scratch holds stores and snapshots; out receives the trace file.
	// Both lie inside the checkout.
	scratch, out string
	// start is when the process started, for setup_s.
	start time.Time
	// corruptReference swaps two entries of every reference ranking, so a
	// test can see the correctness checks fail.
	corruptReference bool
}

// result is one run of one workload.
type result struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Traced    bool   `json:"traced"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// EndToEnd holds every end-to-end metric; in a traced run they come
	// from the half of the measured phase that ran with the recorder off
	// and are not what the driver is given. PerLayer is nil unless traced.
	EndToEnd map[string]metricValue `json:"end_to_end"`
	PerLayer map[string]metricValue `json:"per_layer,omitempty"`
	// Counts are numbers that must repeat exactly between two runs of
	// the same code, whatever the workload seed.
	Counts map[string]string `json:"counts"`
	// Samples says how many samples stand behind the timing metrics.
	Samples map[string]int `json:"samples"`
	Notes   []string       `json:"notes,omitempty"`
}

// env is the state of one run.
type env struct {
	spec spec
	cfg  runConfig
	rec  *recorder // nil unless traced
	res  *result
	e2e  *metricSet
	lay  *metricSet

	reg    *obs.Registry
	ds     *dataset.Dataset
	eng    *core.Engine
	store  *core.Store
	dir    string // this run's scratch directory
	buildS float64

	// Front doors. readURL/writeURL are empty for in-process workloads.
	readURL, writeURL string
	singleURL         string // a shard server's own /experts, the single-node-over-HTTP reference
	shards            []*cluster.ShardEngine
	counters          []*countingHandler
	doors             []door
	stops             []func()

	pool    []dataset.Query
	quality []dataset.Query
	acked   int // writes the system acknowledged
}

// check adds a correctness check's operations to the run's totals.
func (e *env) check(what string, attempted, failed int) {
	e.res.Attempted += attempted
	e.res.Failed += failed
	if failed > 0 {
		e.res.Notes = append(e.res.Notes, fmt.Sprintf("%s: %d of %d failed", what, failed, attempted))
	}
}

// runWorkload runs every phase of s and returns the result. An error
// means the harness itself could not run; failed operations and failed
// checks are counted in the result instead.
func runWorkload(s spec, cfg runConfig) (*result, error) {
	e := &env{
		spec: s, cfg: cfg, reg: obs.NewRegistry(),
		e2e: newMetricSet(endToEnd), lay: newMetricSet(perLayer),
		res: &result{Workload: s.name, Seed: cfg.seed, Traced: cfg.traced,
			Counts: map[string]string{}, Samples: map[string]int{}},
	}
	if cfg.traced {
		e.rec = newRecorder()
	}
	e.dir = filepath.Join(cfg.scratch, fmt.Sprintf("%s-%d", s.name, os.Getpid()))
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(e.dir)
	defer e.shutdown()

	if err := e.setup(); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	var st *staged
	if cfg.traced {
		st = e.stagedPipeline()
	}
	pristine, err := e.verifyFresh()
	if err != nil {
		return nil, err
	}
	if err := e.measure(); err != nil {
		return nil, err
	}
	if cfg.traced {
		e.replay()
		if err := e.probes(st, pristine); err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
	}
	final, err := e.persistAndRecover()
	if err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	if cfg.traced {
		if err := e.probeAddPaper(final); err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
	}
	e.e2e.set("peak_rss_mb", float64(procStatusKB("VmHWM"))/1024)

	var bad, badLayer []string
	e.res.EndToEnd, bad = e.e2e.export()
	if cfg.traced {
		e.res.PerLayer, badLayer = e.lay.export()
		if err := os.MkdirAll(cfg.out, 0o755); err != nil {
			return nil, err
		}
		if err := e.rec.write(filepath.Join(cfg.out, "trace-"+s.name+".json")); err != nil {
			return nil, err
		}
	}
	e.check("metric is a finite number", len(e.res.EndToEnd)+len(e.res.PerLayer), len(bad)+len(badLayer))
	e.res.Correct = e.res.Failed == 0
	return e.res, nil
}

func (e *env) shutdown() {
	for _, d := range e.doors {
		d.close()
	}
	for i := len(e.stops) - 1; i >= 0; i-- {
		e.stops[i]()
	}
	if e.store != nil {
		_ = e.store.Close() // already closed on the success path; closing twice is safe
	}
}

// setup generates the corpus, builds or opens the engine, starts the
// listeners and draws the query pool: everything before the first
// measured operation can be sent.
func (e *env) setup() error {
	s := e.spec
	root := e.rec.start("setup", -1, -1)
	defer e.rec.end(root)

	e.lay.set("dataset.generate_s", e.rec.timed("dataset.generate", root, -1, func() {
		e.ds = dataset.Generate(dataset.AminerSim(s.papers))
	}).Seconds())

	opts := s.options
	opts.Seed = engineSeed
	opts.Metrics = e.reg
	build := func() (eng *core.Engine, err error) {
		e.buildS = e.rec.timed("core.build", root, -1, func() {
			eng, err = core.Build(e.ds.Graph, opts)
		}).Seconds()
		return eng, err
	}
	var err error
	if s.durable {
		e.store, err = core.OpenStore(filepath.Join(e.dir, "store"), e.ds.Graph, build,
			core.StoreOptions{Metrics: e.reg})
		if err == nil {
			e.eng = e.store.Engine()
		}
	} else {
		e.eng, err = build()
	}
	if err != nil {
		return err
	}
	if s.cache > 0 {
		e.eng.EnableQueryCache(core.CacheConfig{MaxEntries: s.cache})
	}
	if err := e.openDoors(); err != nil {
		return err
	}
	e.pool = e.ds.Queries(poolSize, rand.New(rand.NewSource(e.cfg.seed)))

	e.e2e.set("setup_s", time.Since(e.cfg.start).Seconds())
	e.lay.set("core.build_s", e.buildS)

	// What the build reports about itself must repeat exactly.
	st := e.eng.Stats()
	if st.Sampling != nil {
		e.res.Counts["sampling.triples"] = strconv.Itoa(st.Sampling.Triples)
	}
	if st.Training != nil && len(st.Training.EpochLosses) > 0 {
		last := st.Training.EpochLosses[len(st.Training.EpochLosses)-1]
		e.res.Counts["train.final_loss"] = fmt.Sprintf("%016x", math.Float64bits(last))
	}
	e.res.Counts["pgindex.edges"] = strconv.Itoa(st.IndexEdges)
	return nil
}

// freshGraph generates the corpus again. An engine is restored over the
// base graph it was built over, and the serving engine's own graph has
// grown by every write since.
func (e *env) freshGraph() *hetgraph.Graph {
	return dataset.Generate(dataset.AminerSim(e.spec.papers)).Graph
}

// noBuild is OpenStore's build function for a store that must already
// hold a snapshot.
func noBuild() (*core.Engine, error) {
	return nil, errors.New("the store has no snapshot to recover from")
}

// openDoors starts the servers the workload's door needs and makes one
// door per client.
func (e *env) openDoors() error {
	s := e.spec
	serveOn := func(eng *core.Engine, mount func(*serve.Server)) (string, error) {
		srv := serve.New(eng)
		srv.SetReady(true)
		if mount != nil {
			mount(srv)
		}
		c := &countingHandler{next: srv, rec: e.rec}
		e.counters = append(e.counters, c)
		addr, stop, err := listen(c)
		if err != nil {
			return "", err
		}
		e.stops = append(e.stops, stop)
		return addr, nil
	}
	switch s.door {
	case doorHTTP:
		addr, err := serveOn(e.eng, nil)
		if err != nil {
			return err
		}
		e.readURL, e.writeURL, e.singleURL = "http://"+addr, "http://"+addr, "http://"+addr
	case doorRouter:
		const shards = 2
		addrs := make([][]string, shards)
		for i := 0; i < shards; i++ {
			se, err := cluster.NewShardEngine(e.eng, cluster.ShardConfig{ID: i, Of: shards})
			if err != nil {
				return err
			}
			e.shards = append(e.shards, se)
			addr, err := serveOn(e.eng, func(srv *serve.Server) { cluster.MountShard(srv, se) })
			if err != nil {
				return err
			}
			addrs[i] = []string{addr}
		}
		// One replica per shard: a hedge could only hit the same server
		// twice, so hedging is off and request counts stay exact.
		client, err := cluster.NewShardClient(addrs, cluster.ClientConfig{HedgeAfter: -1}, e.reg, nil)
		if err != nil {
			return err
		}
		raddr, stop, err := listen(cluster.NewRouter(client, cluster.RouterConfig{}, e.reg, nil))
		if err != nil {
			return err
		}
		e.stops = append(e.stops, stop)
		e.readURL = "http://" + raddr
		e.writeURL, e.singleURL = "http://"+addrs[0][0], "http://"+addrs[0][0]
	}
	for c := 0; c < s.clients; c++ {
		if s.door == doorInProcess {
			e.doors = append(e.doors, inProcessDoor{e.eng})
		} else {
			e.doors = append(e.doors, newHTTPDoor(e.readURL, e.writeURL))
		}
	}
	return nil
}

// procStatusKB reads one kB field of /proc/self/status (VmHWM, VmRSS).
func procStatusKB(field string) int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, field+":") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseInt(f[1], 10, 64)
				return kb
			}
		}
	}
	return 0
}
