package cluster

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"expertfind/internal/colstore"
	"expertfind/internal/core"
	"expertfind/internal/dataset"
	"expertfind/internal/durable"
	"expertfind/internal/hetgraph"
	"expertfind/internal/obs"
	"expertfind/internal/pgindex"
	"expertfind/internal/serve"
	"expertfind/internal/ta"
)

// The equivalence corpus: one deterministic engine in exact-retrieval
// mode, shared by every test (builds are the expensive part).
var (
	eqOnce sync.Once
	eqDS   *dataset.Dataset
	eqEng  *core.Engine
)

func equivEngine(t *testing.T) (*dataset.Dataset, *core.Engine) {
	t.Helper()
	eqOnce.Do(func() {
		eqDS = dataset.Generate(dataset.AminerSim(200))
		e, err := core.Build(eqDS.Graph, core.Options{
			Dim: 16, Seed: 5, UsePGIndex: core.Bool(false), Metrics: obs.NewRegistry(),
		})
		if err != nil {
			panic(err)
		}
		eqEng = e
	})
	return eqDS, eqEng
}

// topology is a router on a loopback HTTP server over shard replicas
// served in process by a memNet, for tests.
type topology struct {
	routerURL string
	reg       *obs.Registry
	client    *ShardClient
	router    *Router
	net       memNet
	servers   []*serve.Server // the replicas', shard by shard
}

// replica is the memNet entry of a shard's rep-th replica.
func (tp *topology) replica(shard, rep int) *memReplica {
	return tp.net[tp.client.Replicas()[shard][rep]]
}

// startTopology serves eng as S shards (exact retrieval) fronted by a
// router, torn down with the test. faults, when non-nil, wraps shard
// handlers: it receives (shard, replica index, inner handler) and returns
// the handler to serve. replicasPerShard maps shard -> replica count
// (default 1).
func startTopology(t *testing.T, eng *core.Engine, shards int, rcfg RouterConfig, ccfg ClientConfig,
	replicasPerShard map[int]int, faults func(shard, rep int, inner http.Handler) http.Handler) *topology {
	t.Helper()
	return startTopologyCfg(t, eng, shards, rcfg, ccfg, replicasPerShard, faults, nil)
}

// startTopologyCfg is startTopology with per-shard engine configuration:
// shardCfg, when non-nil, produces the full ShardConfig for each shard
// (PG-Index settings included) instead of the default exact scan.
func startTopologyCfg(t *testing.T, eng *core.Engine, shards int, rcfg RouterConfig, ccfg ClientConfig,
	replicasPerShard map[int]int, faults func(shard, rep int, inner http.Handler) http.Handler,
	shardCfg func(id, of int) ShardConfig) *topology {
	t.Helper()
	tp := &topology{reg: obs.NewRegistry(), net: memNet{}}
	addrs := make([][]string, shards)
	for i := 0; i < shards; i++ {
		cfg := ShardConfig{ID: i, Of: shards}
		if shardCfg != nil {
			cfg = shardCfg(i, shards)
		}
		se, err := NewShardEngine(eng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		reps := 1
		if replicasPerShard != nil && replicasPerShard[i] > 0 {
			reps = replicasPerShard[i]
		}
		for r := 0; r < reps; r++ {
			srv := serve.New(eng)
			srv.SetReady(true)
			MountShard(srv, se)
			var h http.Handler = srv
			if faults != nil {
				h = faults(i, r, h)
			}
			addr := fmt.Sprintf("shard%d.%d", i, r)
			tp.net[addr] = &memReplica{h: h}
			tp.servers = append(tp.servers, srv)
			addrs[i] = append(addrs[i], addr)
		}
	}
	var err error
	if tp.client, err = NewShardClient(addrs, ccfg, tp.reg, nil); err != nil {
		t.Fatal(err)
	}
	tp.client.hc.Transport = tp.net
	tp.router = NewRouter(tp.client, rcfg, tp.reg, nil)
	rs := httptest.NewServer(tp.router)
	t.Cleanup(rs.Close)
	tp.routerURL = rs.URL
	return tp
}

// queryExperts runs one /experts query against a base URL and decodes it.
func queryExperts(t *testing.T, base, q string, m, n int) serve.ExpertsResponse {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/experts?%s&m=%d&n=%d", base, url.Values{"q": {q}}.Encode(), m, n))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query %q: status %d: %s", q, resp.StatusCode, b)
	}
	var er serve.ExpertsResponse
	if err := json.Unmarshal(b, &er); err != nil {
		t.Fatalf("query %q: bad payload: %v", q, err)
	}
	return er
}

// assertSameRanking compares a router response with the single-node
// ground truth bit for bit: same experts, same order, same score bits.
func assertSameRanking(t *testing.T, q string, got serve.ExpertsResponse, want []ta.Ranking) {
	t.Helper()
	if len(got.Experts) != len(want) {
		t.Fatalf("query %q: router returned %d experts, single node %d",
			q, len(got.Experts), len(want))
	}
	for i, e := range got.Experts {
		w := want[i]
		if int32(w.Expert) != e.ID {
			t.Fatalf("query %q rank %d: router expert %d, single node %d",
				q, i+1, e.ID, w.Expert)
		}
		if math.Float64bits(e.Score) != math.Float64bits(w.Score) {
			t.Fatalf("query %q rank %d (expert %d): router score %x, single node %x",
				q, i+1, e.ID, math.Float64bits(e.Score), math.Float64bits(w.Score))
		}
		if e.Rank != i+1 {
			t.Fatalf("query %q: rank field %d at position %d", q, e.Rank, i+1)
		}
	}
}

// singleNode serves eng the way a one-process deployment does.
func singleNode(t *testing.T, eng *core.Engine) string {
	t.Helper()
	s := serve.New(eng)
	s.SetReady(true)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestRouterOneRound pins the shape of a routed /experts: every shard is
// asked exactly once, for its papers — S sub-requests per query and none to
// the retired experts route — each answer carries every retrieved paper's
// author list as the graph has it and a table of exactly those authors, and
// the ranking, candidates and ta_depth are the single node's.
func TestRouterOneRound(t *testing.T) {
	ds, eng := equivEngine(t)
	queries := ds.Queries(4, rand.New(rand.NewSource(9)))
	const m, n = 40, 10

	for _, shards := range []int{2, 3, 5} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			var mu sync.Mutex
			served := make([]int, shards)
			topo := startTopology(t, eng, shards, RouterConfig{}, ClientConfig{HedgeAfter: -1}, nil,
				func(shard, rep int, inner http.Handler) http.Handler {
					return interceptShard(inner, func(path string, resp []byte) []byte {
						mu.Lock()
						defer mu.Unlock()
						served[shard]++
						if path != "/shard/papers" {
							t.Errorf("shard %d was asked for %s", shard, path)
						}
						checkAuthorFrame(t, eng, shard, resp)
						return resp
					})
				})
			for qi, q := range queries {
				papers, _, err := eng.RetrievePapers(q.Text, m)
				if err != nil {
					t.Fatal(err)
				}
				want, st := ta.TopExperts(eng.Graph(), papers, n)
				got := queryExperts(t, topo.routerURL, q.Text, m, n)
				assertSameRanking(t, q.Text, got, want)
				if got.Candidates != st.Candidates || got.TADepth != st.Depth {
					t.Fatalf("query %q: candidates %d ta_depth %d, single node %d and %d",
						q.Text, got.Candidates, got.TADepth, st.Candidates, st.Depth)
				}
				mu.Lock()
				for i, got := range served {
					if got != qi+1 {
						t.Fatalf("query %q: shard %d has served %d sub-requests, want %d (1 per query)",
							q.Text, i, got, qi+1)
					}
				}
				mu.Unlock()
			}
		})
	}
}

// checkAuthorFrame holds one /shard/papers?authors=1 answer to the graph:
// each paper's list is its ordered authors, and the table (whose order the
// decoder checks) holds exactly the distinct authors of those papers.
func checkAuthorFrame(t *testing.T, eng *core.Engine, shard int, body []byte) {
	resp, err := decodePapersResponse(body)
	if err != nil || resp.Shard != shard {
		t.Errorf("shard %d answered shard=%d, err %v", shard, resp.Shard, err)
		return
	}
	distinct := map[hetgraph.NodeID]bool{}
	eng.ReadGraph(func(g *hetgraph.Graph) {
		for _, p := range resp.Papers {
			if !slices.Equal(p.Authors, g.AuthorsOf(hetgraph.NodeID(p.ID))) {
				t.Errorf("shard %d: paper %d carries authors %v, the graph has %v", shard, p.ID, p.Authors, g.AuthorsOf(hetgraph.NodeID(p.ID)))
			}
			for _, a := range p.Authors {
				distinct[a] = true
			}
		}
		for _, a := range resp.Authors {
			if !distinct[a.ID] || a.Name != g.Label(a.ID) || a.Papers != len(g.PapersOf(a.ID)) {
				t.Errorf("shard %d: table entry %+v is not an author of its papers as the graph has it", shard, a)
			}
		}
	})
	if len(resp.Authors) != len(distinct) {
		t.Errorf("shard %d: table of %d for %d distinct authors", shard, len(resp.Authors), len(distinct))
	}
}

// TestRouterHealthTopology pins the /healthz contract for routers and
// shards: role, shard coordinates, replica sets.
func TestRouterHealthTopology(t *testing.T) {
	_, eng := equivEngine(t)
	topo := startTopology(t, eng, 2, RouterConfig{}, ClientConfig{}, nil, nil)

	resp, err := http.Get(topo.routerURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rh RouterHealth
	if err := json.NewDecoder(resp.Body).Decode(&rh); err != nil {
		t.Fatal(err)
	}
	if rh.Role != "router" || rh.Shards != 2 {
		t.Fatalf("router healthz: %+v", rh)
	}
	if len(rh.Replicas) != 2 || len(rh.Replicas[0]) != 1 {
		t.Fatalf("router healthz replicas: %+v", rh.Replicas)
	}
	if len(rh.AliveReplicas) != 2 || rh.AliveReplicas[0] != 1 || rh.AliveReplicas[1] != 1 {
		t.Fatalf("router healthz alive: %+v", rh.AliveReplicas)
	}

	sresp, err := topo.client.hc.Get("http://" + rh.Replicas[1][0] + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var sh serve.HealthResponse
	if err := json.NewDecoder(sresp.Body).Decode(&sh); err != nil {
		t.Fatal(err)
	}
	if sh.Role != "shard" || sh.ShardID != 1 || sh.Shards != 2 || sh.OwnedPapers <= 0 {
		t.Fatalf("shard healthz topology: %+v", sh.Topology)
	}
}

// answer serves one GET through h and returns its status and, when 200,
// its JSON body with response_ms left out.
func answer(t *testing.T, h http.Handler, path string) (int, any) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		return rec.Code, nil
	}
	var body any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("%s: bad payload: %v", path, err)
	}
	if m, ok := body.(map[string]any); ok {
		delete(m, "response_ms")
	}
	return rec.Code, body
}

// sameRanking fails unless got is want: the same experts in the same
// order with the same score bits.
func sameRanking(t *testing.T, label string, got, want []ta.Ranking) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d experts, want %d", label, len(got), len(want))
	}
	for i, w := range want {
		if got[i].Expert != w.Expert || math.Float64bits(got[i].Score) != math.Float64bits(w.Score) {
			t.Fatalf("%s rank %d: expert %d (%x), want %d (%x)", label, i+1, got[i].Expert,
				math.Float64bits(got[i].Score), w.Expert, math.Float64bits(w.Score))
		}
	}
}

// FuzzRankingEquivalence holds every topology to one ranking on generated
// corpora. The corpus is a dataset preset at a fuzzed seed and size (40 to
// 250 papers) with a fuzzed topic count, authors-per-paper bound and group
// size; a durable exact leader store takes 0 to 8 updates that repeat one
// base paper's text, so that the query of that text ties them at distance
// 0 across the m-cut; then a snapshot. For that query and the fuzzed one,
// at the fuzzed m and n over S in 1..5 shards, each of these answers
// /experts and /papers with the leader's own server's JSON body
// (response_ms aside) and ranks TopExperts Float64bits-equal:
//   - the router over S exact shards serving the snapshot's mapped load,
//     one of whose replicas is a following store bootstrapped over HTTP
//     with the fuzzed mmap mode and caught up; it must have served
//     sub-requests, answer /readyz 200 and /healthz as the shard's
//     follower, and map its snapshot exactly when its mode is not off;
//   - rankResponses over the shards' framed answers, without HTTP, at n in
//     {1, n, candidates, candidates+5}, work stats and metadata included;
//   - heap and mapped loads of the snapshot;
//   - an engine built with a PG-Index whose pool admits every paper.
//
// And S shards searching their own PG-Index, with a pool below every
// shard's size so the walk runs, rank like ta.TopExperts over the global
// top-m of the shards' own Search.
func FuzzRankingEquivalence(f *testing.F) {
	f.Add(uint8(0), int64(101), uint8(160), uint8(5), uint8(2), uint8(3), uint8(0), "graph embedding", uint8(39), uint8(9), uint8(1), uint8(0))
	f.Add(uint8(1), int64(7), uint8(0), uint8(11), uint8(4), uint8(9), uint8(80), "  ", uint8(2), uint8(2), uint8(2), uint8(1))
	f.Add(uint8(2), int64(3), uint8(210), uint8(0), uint8(0), uint8(0), uint8(44), "\xff\xfe[UNK]", uint8(4), uint8(0), uint8(4), uint8(2))
	f.Add(uint8(0), int64(55), uint8(60), uint8(3), uint8(5), uint8(22), uint8(25), "[UNK]", uint8(255), uint8(63), uint8(3), uint8(1))
	f.Add(uint8(1), int64(-9), uint8(30), uint8(7), uint8(1), uint8(15), uint8(17), "", uint8(5), uint8(5), uint8(0), uint8(2))
	f.Add(uint8(2), int64(12), uint8(120), uint8(1), uint8(3), uint8(5), uint8(71), "retrieval of experts", uint8(7), uint8(4), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, preset uint8, seed int64, size, topics, authors, group, updates uint8,
		query string, m, n, shards, mmap uint8) {
		cfg := []func(int) dataset.Config{dataset.AminerSim, dataset.DBLPSim, dataset.ACMSim}[preset%3](40 + int(size)%211)
		cfg.Seed, cfg.NumTopics = seed, 2+int(topics)%12
		cfg.AuthorsPerPaperMin, cfg.AuthorsPerPaperMax = 1, 1+int(authors)%6
		cfg.GroupSizeMin, cfg.GroupSizeMax = 1+int(group)%4, 1+int(group)%4+int(group/4)%6
		gen := func() *hetgraph.Graph { return dataset.Generate(cfg).Graph }
		build := func(g *hetgraph.Graph, pg bool, ef int) (*core.Engine, error) {
			return core.Build(g, core.Options{Dim: 8, Seed: 5, UseKPCore: core.Bool(false),
				UsePGIndex: core.Bool(pg), EF: ef, Metrics: obs.NewRegistry()})
		}
		query = query[:min(len(query), 200)]
		S, mq, nq := 1+int(shards)%5, 1+int(m), 1+int(n)%64

		// The leader and its updates: u of them, k before the snapshot the
		// follower bootstraps from, the rest replicated to it.
		g := gen()
		papers, writers := g.NodesOfType(hetgraph.Paper), g.NodesOfType(hetgraph.Author)
		text := g.Label(papers[int(uint64(seed)%uint64(len(papers)))])
		u := int(updates) % 9
		k := int(updates) / 9 % (u + 1)
		add := func(e *core.Engine, from, to int) {
			for i := from; i < to; i++ {
				p := core.NewPaper{Text: text, Authors: []hetgraph.NodeID{writers[i*7%len(writers)], writers[(i*13+1)%len(writers)]}}
				if _, err := e.AddPaper(p); err != nil {
					t.Fatal(err)
				}
			}
		}
		store, err := core.OpenStore(t.TempDir(), g, func() (*core.Engine, error) { return build(g, false, 0) },
			core.StoreOptions{Sync: durable.SyncNever, Metrics: obs.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { store.Close() })
		leader := store.Engine()
		single := serve.New(leader)
		single.SetReady(true)
		serve.MountReplication(single, store)
		lts := httptest.NewServer(single)
		t.Cleanup(lts.Close)
		add(leader, 0, k)
		if err := store.Snapshot(); err != nil {
			t.Fatal(err)
		}
		mode := []colstore.Mode{colstore.ModeAuto, colstore.ModeOff, colstore.ModeOn}[mmap%3]
		fo, err := core.OpenStore(t.TempDir(), gen(), nil, core.StoreOptions{Leader: lts.URL, FollowerID: "fuzz",
			PollInterval: 5 * time.Millisecond, Mmap: mode, Metrics: obs.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { fo.Close() })
		add(leader, k, u)
		deadline := time.Now().Add(10 * time.Second)
		for !(fo.Status().CaughtUp && fo.LastSeq() >= uint64(u)) {
			if time.Now().After(deadline) {
				t.Fatalf("follower never caught up: %+v", fo.Status())
			}
			time.Sleep(time.Millisecond)
		}
		if err := store.Snapshot(); err != nil {
			t.Fatal(err)
		}

		// The other engines: the snapshot loaded both ways, and a PG build.
		load := func(mode colstore.Mode) *core.Engine {
			e, err := core.LoadFileWith(store.SnapshotPath(), gen(), core.LoadOptions{Mmap: mode})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { e.CloseSnapshot() })
			return e
		}
		pgEng, err := build(gen(), true, len(papers)+u)
		if err != nil {
			t.Fatal(err)
		}
		add(pgEng, 0, u)
		mapped := load(colstore.ModeOn)
		if !mapped.SnapshotMapped() || fo.Engine().SnapshotMapped() != (mode != colstore.ModeOff) {
			t.Fatalf("mapped load %v, follower in mode %v %v", mapped.SnapshotMapped(), mode, fo.Engine().SnapshotMapped())
		}
		others := map[string]*core.Engine{"heap": load(colstore.ModeOff), "mapped": mapped,
			"follower": fo.Engine(), "PG-Index": pgEng}

		// The exact topology over the mapped load, the follower as shard 0's
		// second replica.
		foSE, err := NewShardEngine(fo.Engine(), ShardConfig{ID: 0, Of: S})
		if err != nil {
			t.Fatal(err)
		}
		foSrv := serve.New(fo.Engine())
		foSrv.SetReady(true)
		MountShard(foSrv, foSE)
		serve.MountReplication(foSrv, fo)
		var foServed atomic.Int64
		topo := startTopology(t, mapped, S, RouterConfig{}, ClientConfig{}, map[int]int{0: 2},
			func(shard, rep int, inner http.Handler) http.Handler {
				if shard > 0 || rep == 0 {
					return inner
				}
				return interceptShard(foSrv, func(_ string, resp []byte) []byte { foServed.Add(1); return resp })
			})
		engines := make([]*ShardEngine, S)
		for i := range engines {
			if engines[i], err = NewShardEngine(leader, ShardConfig{ID: i, Of: S}); err != nil {
				t.Fatal(err)
			}
		}
		if foSE.NumOwned() != engines[0].NumOwned() {
			t.Fatalf("the follower's shard owns %d papers, the leader's %d", foSE.NumOwned(), engines[0].NumOwned())
		}

		servers := map[string]http.Handler{"router": topo.router, "follower": foSrv}
		for name, e := range others {
			if name != "follower" {
				servers[name] = serve.New(e)
			}
		}
		for _, q := range []string{query, text} {
			want, wantStats, err := leader.TopExperts(q, mq, nq)
			if err != nil {
				t.Fatal(err)
			}
			for name, e := range others {
				got, _, err := e.TopExperts(q, mq, nq)
				if err != nil {
					t.Fatal(err)
				}
				sameRanking(t, fmt.Sprintf("%s, query %q", name, q), got, want)
			}
			for _, path := range []string{
				fmt.Sprintf("/experts?%s&m=%d&n=%d", url.Values{"q": {q}}.Encode(), mq, nq),
				fmt.Sprintf("/papers?%s&m=%d", url.Values{"q": {q}}.Encode(), mq),
			} {
				code, body := answer(t, single, path)
				for name, h := range servers {
					if c, b := answer(t, h, path); c != code || !reflect.DeepEqual(b, body) {
						t.Fatalf("%s %s: %d %v, single node %d %v", name, path, c, b, code, body)
					}
				}
			}

			// The router's sum over the framed shard answers.
			resps := make([]*PapersResponse, S)
			for i, se := range engines {
				res, err := se.Retrieve(context.Background(), q, mq)
				if err != nil {
					t.Fatal(err)
				}
				resps[i] = new(PapersResponse)
				if err := decodeFrame(encodeFrame(se.Papers(res, true, false)), resps[i]); err != nil {
					t.Fatal(err)
				}
			}
			retrieved, _, err := leader.RetrievePapers(q, mq)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range []int{1, nq, wantStats.TA.Candidates, wantStats.TA.Candidates + 5} {
				want, wantStats := ta.TopExperts(leader.Graph(), retrieved, n)
				got, stats, err := rankResponses(context.Background(), resps, mq, n)
				if err != nil {
					t.Fatal(err)
				}
				if stats != wantStats || len(got) != len(want) {
					t.Fatalf("query %q n=%d: ranked %d with %+v, single node %d with %+v", q, n, len(got), stats, len(want), wantStats)
				}
				for i, e := range got {
					w := want[i]
					if e.ID != int32(w.Expert) || math.Float64bits(e.Score) != math.Float64bits(w.Score) || e.Rank != i+1 ||
						e.Name != leader.Graph().Label(w.Expert) || e.Papers != len(leader.Graph().PapersOf(w.Expert)) {
						t.Fatalf("query %q n=%d rank %d: %+v (%x), single node %d (%x)", q, n, i+1, e,
							math.Float64bits(e.Score), w.Expert, math.Float64bits(w.Score))
					}
				}
			}
		}
		if foServed.Load() == 0 || foServed.Load() != topo.replica(0, 1).requests.Load() {
			t.Fatalf("the follower answered %d of %d sub-requests", foServed.Load(), topo.replica(0, 1).requests.Load())
		}
		if code, _ := answer(t, foSrv, "/readyz"); code != http.StatusOK {
			t.Fatalf("caught-up follower /readyz = %d", code)
		}
		rec := httptest.NewRecorder()
		foSrv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		var health serve.HealthResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
			t.Fatal(err)
		}
		if health.Role != "follower" || health.ShardID != 0 || health.Shards != S || health.OwnedPapers != foSE.NumOwned() {
			t.Fatalf("follower /healthz topology %+v, want shard 0 of %d owning %d", health.Topology, S, foSE.NumOwned())
		}

		// S shards searching their own PG-Index below their size.
		owned := len(papers) + u
		for _, se := range engines {
			owned = min(owned, se.NumOwned())
		}
		ef := owned - 1
		if ef < 1 {
			return
		}
		mPG := min(mq, ef)
		pgCfg := func(id, of int) ShardConfig {
			return ShardConfig{ID: id, Of: of, UsePGIndex: true, EF: ef, Index: pgindex.Config{Refine: true, Seed: 11}}
		}
		pgTopo := startTopologyCfg(t, leader, S, RouterConfig{}, ClientConfig{}, nil, nil, pgCfg)
		for i := range engines {
			if engines[i], err = NewShardEngine(leader, pgCfg(i, S)); err != nil {
				t.Fatal(err)
			}
		}
		for _, q := range []string{query, text} {
			if q == "" {
				continue
			}
			var all []pgindex.Result
			for _, se := range engines {
				res, _ := se.index.Search(leader.EncodeQuery(q), mPG, ef)
				all = append(all, res...)
			}
			slices.SortFunc(all, func(a, b pgindex.Result) int {
				return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.ID, b.ID))
			})
			top := make([]hetgraph.NodeID, 0, mPG)
			for _, r := range all[:min(mPG, len(all))] {
				top = append(top, r.ID)
			}
			want, _ := ta.TopExperts(leader.Graph(), top, nq)
			assertSameRanking(t, q, queryExperts(t, pgTopo.routerURL, q, mPG, nq), want)
		}
	})
}
