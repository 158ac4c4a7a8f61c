package main

import (
	"math/rand"

	"expertfind/internal/core"
	"expertfind/internal/dataset"
	"expertfind/internal/hetgraph"
)

// Load shape shared by every workload: closed loop (a client sends its
// next request only after the previous ranking arrived), at most nproc
// clients, m and n at the server's and the paper's defaults.
const (
	topM = 200
	topN = 20

	// runSeconds is the measured phase's length when the driver runs the
	// benchmark; BENCHMARK.json carries the same number. The driver allows
	// 114 runs 3420 s together, set-up of 8-14 s each included.
	runSeconds = 8

	engineSeed  = 1    // core.Options.Seed of every build
	qualitySeed = 7    // draws the fixed quality queries
	poolSize    = 2000 // distinct queries a run draws from
	qualityN    = 300
	recallN     = 200
	referenceN  = 50   // answers checked against the naive reference
	recoverN    = 100  // rankings compared across a reopen
	writeOps    = 1000 // most writes of the write phase that follows a read-only measured phase
	recoverReps = 9
	// minPasses is how often a time-bounded phase repeats its sequence at
	// least, fixedPasses how often a count-bounded one (-seconds 0) does.
	minPasses   = 3
	fixedPasses = 5
)

type doorKind int

const (
	doorInProcess doorKind = iota // Engine.TopExperts / Engine.AddPaper
	doorHTTP                      // serve.New(engine) on loopback
	doorRouter                    // cluster.NewRouter over 2 shard servers on loopback
)

// spec is one workload: what is built, through which door the operations
// go, and the sequence of them the measured phase repeats.
type spec struct {
	name string
	why  string

	papers  int
	options core.Options
	door    doorKind
	// durable opens the engine through core.OpenStore with a SyncAlways
	// WAL, so every acked write was fsynced.
	durable bool
	// cache is EnableQueryCache's MaxEntries; 0 leaves the cache off.
	cache   int
	clients int
	// writeEvery makes one measured operation in writeEvery a write; 0
	// keeps the measured phase read-only and runs the writes after it.
	writeEvery int
	// zipf draws queries Zipf(1.1) over the pool instead of cycling
	// through it, so some repeat and the cache can hit.
	zipf bool
	// seqOps is the length of the seeded operation sequence. The measured
	// phase repeats it pass after pass and counts every operation at the
	// fastest of its repetitions, so it is sized for 15 to 40 passes in
	// runSeconds at the seed commit's speed: the more repetitions, the
	// surer one of them met a quiet machine.
	seqOps int
	// procs, when set, is GOMAXPROCS during the measured phase.
	procs int
	// verifyEvery compares every measured answer bit for bit with
	// Engine.TopExperts on the same engine, after the phase.
	verifyEvery bool
	// mapFloor and p10Floor are the quality the build must reach, about
	// 85 % of what the seed commit measures (map_at_20 is small because a
	// truth set holds every author of a topic, far more than 20); below
	// them the run is incorrect.
	mapFloor, p10Floor float64
}

var workloads = []spec{
	{
		name:   "offline",
		why:    "one core.Build with default options (per-seed Algorithm 1, 4 epochs, NNDescent) over 2000 papers: the only workload where kpcore, sampling, train and the vocab/pre-train do most of the work",
		papers: 2000, clients: 1, seqOps: 1000,
		mapFloor: 0.10, p10Floor: 0.90,
	},
	{
		name:   "query_pg",
		why:    "2 in-process clients on a 5000-paper PG-Index engine, cache off: encode, greedy search and TA do all the work; exact scan, HTTP, WAL and router none",
		papers: 5000, options: core.Options{FastSampling: true},
		clients: 2, seqOps: 1000,
		mapFloor: 0.04, p10Floor: 0.90,
	},
	{
		name:   "query_exact",
		why:    "1 in-process client on a 20000-paper engine without PG-Index or fine-tuning: >=95 % of a query is pgindex.BruteForce, the scan ROADMAP item 2 wants at kernel speed; PG search does nothing",
		papers: 20000, options: core.Options{UseKPCore: core.Bool(false), UsePGIndex: core.Bool(false)},
		clients: 1, seqOps: 100,
		mapFloor: 0.008, p10Floor: 0.75,
	},
	{
		name:   "serve_rw",
		why:    "2 keep-alive HTTP clients, 90 % Zipf reads and 10 % POST /add on a 5000-paper durable store (SyncAlways WAL, 4096-entry cache): writes lock, fsync, insert and invalidate the cache beside reads",
		papers: 5000, options: core.Options{FastSampling: true},
		door: doorHTTP, durable: true, cache: 4096,
		clients: 2, writeEvery: 10, zipf: true, seqOps: 500,
		mapFloor: 0.04, p10Floor: 0.90,
	},
	{
		name:   "cluster_2shard",
		why:    "1 HTTP client against a router over 2 shard servers sharing one exact 3000-paper engine: the router tax of ROADMAP item 3 (sequential scatter rounds, wire bytes); shard compute is a small share",
		papers: 3000, options: core.Options{FastSampling: true, UsePGIndex: core.Bool(false)},
		door: doorRouter, clients: 1, seqOps: 50, verifyEvery: true,
		// Client, router and both shard servers share one P: a query's
		// latency is then the sum of their work. With two, the single
		// client leaves a vCPU idle between hops, the host parks it, and the
		// latency is mostly the host's time to wake it (spread over ten
		// runs 19-33 % against 7-10 %).
		procs:    1,
		mapFloor: 0.065, p10Floor: 0.90,
	},
}

func findSpec(name string) (spec, bool) {
	for _, s := range workloads {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// op is one operation of the seeded sequence.
type op struct {
	write bool
	query int // index into the pool, for a read
	paper core.NewPaper
}

// newPaper draws an /add payload: the text of a pool query (a paraphrase
// of an existing paper), 1-2 existing authors, 1 venue, that query's topic.
func newPaper(ds *dataset.Dataset, pool []dataset.Query, authors []hetgraph.NodeID, rng *rand.Rand) core.NewPaper {
	q := pool[rng.Intn(len(pool))]
	p := core.NewPaper{
		Text:   q.Text,
		Venues: []hetgraph.NodeID{ds.Venues[rng.Intn(len(ds.Venues))]},
		Topics: []hetgraph.NodeID{ds.Topics[q.Topic]},
	}
	for i := 1 + rng.Intn(2); i > 0; i-- {
		p.Authors = append(p.Authors, authors[rng.Intn(len(authors))])
	}
	return p
}

// makeOps generates the measured sequence from the workload seed. The
// program under test sees only these inputs, never the seed.
func makeOps(s spec, ds *dataset.Dataset, pool []dataset.Query, seed int64) []op {
	rng := rand.New(rand.NewSource(seed + 1))
	authors := ds.Graph.NodesOfType(hetgraph.Author)
	var z *rand.Zipf
	if s.zipf {
		z = rand.NewZipf(rng, 1.1, 1, uint64(len(pool)-1))
	}
	ops := make([]op, s.seqOps)
	for i := range ops {
		switch {
		case s.writeEvery > 0 && rng.Intn(s.writeEvery) == 0:
			ops[i] = op{write: true, paper: newPaper(ds, pool, authors, rng)}
		case z != nil:
			ops[i] = op{query: int(z.Uint64())}
		default:
			ops[i] = op{query: i % len(pool)}
		}
	}
	return ops
}

// makeWrites generates the write phase that follows a read-only measured
// phase.
func makeWrites(ds *dataset.Dataset, pool []dataset.Query, seed int64, n int) []op {
	rng := rand.New(rand.NewSource(seed + 2))
	authors := ds.Graph.NodesOfType(hetgraph.Author)
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{write: true, paper: newPaper(ds, pool, authors, rng)}
	}
	return ops
}
