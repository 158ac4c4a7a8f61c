package cluster

import (
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
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"expertfind/internal/core"
	"expertfind/internal/dataset"
	"expertfind/internal/hetgraph"
	"expertfind/internal/obs"
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

// topology is a live router-over-real-HTTP-shards deployment for tests.
type topology struct {
	routerURL string
	reg       *obs.Registry
	client    *ShardClient
}

// startTopology serves eng as S shards (each on its own loopback HTTP
// server, exact retrieval) fronted by a router, all torn down with the
// test. faults, when non-nil, wraps shard handlers for fault injection:
// it receives (shard, replica index, inner handler) and returns the
// handler to serve. replicasPerShard maps shard -> replica count
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
			ts := httptest.NewServer(h)
			t.Cleanup(ts.Close)
			addrs[i] = append(addrs[i], strings.TrimPrefix(ts.URL, "http://"))
		}
	}
	reg := obs.NewRegistry()
	client, err := NewShardClient(addrs, ccfg, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	router := NewRouter(client, rcfg, reg, nil)
	rs := httptest.NewServer(router)
	t.Cleanup(rs.Close)
	return &topology{routerURL: rs.URL, reg: reg, client: client}
}

// queryExperts runs one /experts query against a base URL and decodes it.
func queryExperts(t *testing.T, base, q string, m, n int) serve.ExpertsResponse {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/experts?q=%s&m=%d&n=%d", base, url.QueryEscape(q), m, n))
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

// getJSON fetches a URL that must answer 200 and decodes its body as
// generic JSON.
func getJSON(t *testing.T, url string) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d: %s", url, resp.StatusCode, b)
	}
	var out map[string]any
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatalf("%s: bad payload: %v", url, err)
	}
	return out
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

// TestRouterMatchesSingleNode is the acceptance equivalence test: for
// S in {2, 4}, the router's top-n over S shards must equal single-node
// ta.TopExperts exactly — ids, order and float bits, ties included — and
// its whole /experts body must be the single node's, response_ms aside:
// names, paper counts, candidates, ta_depth, cached.
func TestRouterMatchesSingleNode(t *testing.T) {
	ds, eng := equivEngine(t)
	queries := ds.Queries(8, rand.New(rand.NewSource(3)))
	const m, n = 40, 10
	single := singleNode(t, eng)

	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			topo := startTopology(t, eng, shards, RouterConfig{}, ClientConfig{}, nil, nil)
			for _, q := range queries {
				want, _, err := eng.TopExperts(q.Text, m, n)
				if err != nil {
					t.Fatal(err)
				}
				got := queryExperts(t, topo.routerURL, q.Text, m, n)
				assertSameRanking(t, q.Text, got, want)

				path := fmt.Sprintf("/experts?q=%s&m=%d&n=%d", url.QueryEscape(q.Text), m, n)
				routed, alone := getJSON(t, topo.routerURL+path), getJSON(t, single+path)
				if routed["candidates"] == float64(0) || routed["ta_depth"] == float64(0) {
					t.Fatalf("query %q: candidates %v, ta_depth %v", q.Text, routed["candidates"], routed["ta_depth"])
				}
				delete(routed, "response_ms")
				delete(alone, "response_ms")
				if !reflect.DeepEqual(routed, alone) {
					t.Fatalf("query %q: router body %v, single node %v", q.Text, routed, alone)
				}
			}
		})
	}
}

// shardFrames asks S shard engines for a query's papers the way the router
// does and passes each answer through the wire codec.
func shardFrames(t *testing.T, engines []*ShardEngine, query string, m int) []*PapersResponse {
	t.Helper()
	resps := make([]*PapersResponse, len(engines))
	for i, se := range engines {
		res, err := se.Retrieve(context.Background(), query, m)
		if err != nil {
			t.Fatal(err)
		}
		sent := se.Papers(res, true, false)
		resps[i] = new(PapersResponse)
		if err := decodeFrame(encodeFrame(&sent), resps[i]); err != nil {
			t.Fatal(err)
		}
	}
	return resps
}

// TestRouterSumMatchesTopExperts holds the router's ranking itself — no
// HTTP, no router — to the single-node ranker: the papers S in 2..5 shard
// engines retrieve, framed with their author lists, decoded, merged and
// summed by rankResponses, must come out as ta.TopExperts returns them over
// the undivided list on the graph, for cuts inside, at and past the
// candidate count — ids, score bits, work stats, names and paper counts.
func TestRouterSumMatchesTopExperts(t *testing.T) {
	ds, eng := equivEngine(t)
	g := eng.Graph()
	const m = 40
	for shards := 2; shards <= 5; shards++ {
		engines := make([]*ShardEngine, shards)
		for i := range engines {
			se, err := NewShardEngine(eng, ShardConfig{ID: i, Of: shards})
			if err != nil {
				t.Fatal(err)
			}
			engines[i] = se
		}
		for _, q := range ds.Queries(6, rand.New(rand.NewSource(11))) {
			papers, _, err := eng.RetrievePapers(q.Text, m)
			if err != nil {
				t.Fatal(err)
			}
			resps := shardFrames(t, engines, q.Text, m)
			_, all := ta.TopExperts(g, papers, 1)
			for _, n := range []int{1, 10, all.Candidates, all.Candidates + 5} {
				want, wantStats := ta.TopExperts(g, papers, n)
				got, stats, err := rankResponses(context.Background(), resps, m, n)
				if err != nil {
					t.Fatal(err)
				}
				if stats != wantStats || len(got) != len(want) {
					t.Fatalf("S=%d %q n=%d: router ranked %d with stats %+v, single node %d with %+v",
						shards, q.Text, n, len(got), stats, len(want), wantStats)
				}
				for i, e := range got {
					w := want[i]
					if e.ID != int32(w.Expert) || math.Float64bits(e.Score) != math.Float64bits(w.Score) || e.Rank != i+1 {
						t.Fatalf("S=%d %q n=%d rank %d: router (%d, %x), single node (%d, %x)", shards, q.Text,
							n, i+1, e.ID, math.Float64bits(e.Score), w.Expert, math.Float64bits(w.Score))
					}
					if e.Name != g.Label(w.Expert) || e.Papers != len(g.PapersOf(w.Expert)) {
						t.Fatalf("S=%d %q rank %d: metadata (%q, %d) is not expert %d's",
							shards, q.Text, i+1, e.Name, e.Papers, w.Expert)
					}
				}
			}
		}
	}
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

// TestRouterPapersMatchesSingleNode checks the retrieval route too: the
// merged /papers list must equal the single-node one.
func TestRouterPapersMatchesSingleNode(t *testing.T) {
	ds, eng := equivEngine(t)
	q := ds.Queries(1, rand.New(rand.NewSource(17)))[0]
	const m = 15

	single := singleNode(t, eng)
	topo := startTopology(t, eng, 2, RouterConfig{}, ClientConfig{}, nil, nil)

	fetch := func(base string) []serve.PaperResult {
		resp, err := http.Get(fmt.Sprintf("%s/papers?q=%s&m=%d", base, url.QueryEscape(q.Text), m))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, b)
		}
		var out []serve.PaperResult
		if err := json.Unmarshal(b, &out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := fetch(single)
	got := fetch(topo.routerURL)
	if len(want) != m || !reflect.DeepEqual(got, want) {
		t.Fatalf("router returned %+v, single node %+v", got, want)
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

	sresp, err := http.Get("http://" + rh.Replicas[1][0] + "/healthz")
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

// addEquivPapers applies n deterministic updates starting at index
// start; the same call against any engine over the same base corpus
// produces bit-identical state.
func addEquivPapers(t *testing.T, eng *core.Engine, start, n int) {
	t.Helper()
	authors := eng.Graph().NodesOfType(hetgraph.Author)
	for i := start; i < start+n; i++ {
		_, err := eng.AddPaper(core.NewPaper{
			Text: fmt.Sprintf("replicated paper %d on expert retrieval", i),
			Authors: []hetgraph.NodeID{
				authors[i%len(authors)], authors[(i*5+2)%len(authors)],
			},
		})
		if err != nil {
			t.Fatalf("add paper %d: %v", i, err)
		}
	}
}

// TestFollowerReplicaMatchesSingleNode slots a WAL-shipping follower
// into a router replica set next to its leader: one shard, two replicas,
// one of them replicated rather than locally written. After catch-up
// every routed query — whichever replica serves it — must match the
// single-node ranking bit for bit, and the follower must actually have
// served some of the traffic.
func TestFollowerReplicaMatchesSingleNode(t *testing.T) {
	const papers = 150
	ds := dataset.Generate(dataset.AminerSim(papers))
	reg := obs.NewRegistry()
	store, err := core.OpenStore(t.TempDir(), ds.Graph,
		func() (*core.Engine, error) {
			return core.Build(ds.Graph, core.Options{
				Dim: 16, Seed: 5, UsePGIndex: core.Bool(false), Metrics: reg,
			})
		}, core.StoreOptions{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	leaderEng := store.Engine()
	addEquivPapers(t, leaderEng, 0, 10)

	// Leader replica: shard API plus the replication surface.
	leaderSE, err := NewShardEngine(leaderEng, ShardConfig{ID: 0, Of: 1})
	if err != nil {
		t.Fatal(err)
	}
	leaderSrv := serve.New(leaderEng)
	leaderSrv.SetReady(true)
	MountShard(leaderSrv, leaderSE)
	serve.MountReplication(leaderSrv, store, nil)
	lts := httptest.NewServer(leaderSrv)
	defer lts.Close()

	// Follower replica: bootstraps from the leader's snapshot and tails
	// its WAL over the wire, over an independent copy of the base graph.
	fg := dataset.Generate(dataset.AminerSim(papers)).Graph
	foReg := obs.NewRegistry()
	obs.RegisterReplication(foReg)
	fo, err := core.OpenFollower(t.TempDir(), fg, lts.URL, core.FollowerOptions{
		ID: "replica-1", PollInterval: 10 * time.Millisecond, Metrics: foReg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fo.Close()
	fo.Start()
	deadline := time.Now().Add(20 * time.Second)
	for !(fo.CaughtUp() && fo.Store().LastSeq() >= 10) {
		if time.Now().After(deadline) {
			t.Fatalf("follower never caught up: %+v", fo.Status())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The shard view is carved out only after catch-up — shard serving
	// state is a build-time snapshot on leaders and followers alike.
	foSE, err := NewShardEngine(fo.Engine(), ShardConfig{ID: 0, Of: 1})
	if err != nil {
		t.Fatal(err)
	}
	if foSE.NumOwned() != leaderSE.NumOwned() {
		t.Fatalf("follower shard owns %d papers, leader owns %d — the 10 "+
			"replicated updates are missing", foSE.NumOwned(), leaderSE.NumOwned())
	}

	foSrv := serve.New(fo.Engine())
	foSrv.SetReady(true)
	MountFollowerShard(foSrv, foSE, fo)
	var followerHits atomic.Int64
	fts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/shard/") {
			followerHits.Add(1)
		}
		foSrv.ServeHTTP(w, r)
	}))
	defer fts.Close()

	// The follower is a drop-in replica: same address list shape, no
	// router-side configuration.
	creg := obs.NewRegistry()
	addrs := [][]string{{
		strings.TrimPrefix(lts.URL, "http://"),
		strings.TrimPrefix(fts.URL, "http://"),
	}}
	client, err := NewShardClient(addrs, ClientConfig{}, creg, nil)
	if err != nil {
		t.Fatal(err)
	}
	router := NewRouter(client, RouterConfig{}, creg, nil)
	rs := httptest.NewServer(router)
	defer rs.Close()

	queries := ds.Queries(8, rand.New(rand.NewSource(3)))
	const m, n = 40, 10
	for _, q := range queries {
		want, _, err := leaderEng.TopExperts(q.Text, m, n)
		if err != nil {
			t.Fatal(err)
		}
		got := queryExperts(t, rs.URL, q.Text, m, n)
		assertSameRanking(t, q.Text, got, want)
	}
	if followerHits.Load() == 0 {
		t.Fatal("the follower replica never served a shard sub-request")
	}

	// The follower's lag-aware /readyz is what the router's re-admission
	// probe reads; caught up, it must say 200.
	resp, err := http.Get(fts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("caught-up follower /readyz = %d, want 200", resp.StatusCode)
	}
}
