package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
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

// TestRouterMatchesSingleNode is the acceptance equivalence test: for
// S in {2, 4}, the router's top-n over S shards must equal single-node
// ta.TopExperts exactly — ids, order and float bits, ties included.
func TestRouterMatchesSingleNode(t *testing.T) {
	ds, eng := equivEngine(t)
	queries := ds.Queries(8, rand.New(rand.NewSource(3)))
	const m, n = 40, 10

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
			}
		})
	}
}

// TestFinalRankingMatchesTopExperts holds the merge itself — no HTTP, no
// router — to the single-node ranker: the ranked papers of a query, dealt
// to S in {1, 2, 4} shard engines with their global ranks and scored
// there, must come out of finalRanking as ta.TopExperts returns them over
// the undivided list, for cuts inside, at and past the candidate count.
func TestFinalRankingMatchesTopExperts(t *testing.T) {
	ds, eng := equivEngine(t)
	g := eng.Graph()
	for _, shards := range []int{1, 2, 4} {
		engines := make([]*ShardEngine, shards)
		for i := range engines {
			se, err := NewShardEngine(eng, ShardConfig{ID: i, Of: shards})
			if err != nil {
				t.Fatal(err)
			}
			engines[i] = se
		}
		for _, q := range ds.Queries(6, rand.New(rand.NewSource(11))) {
			papers, _, err := eng.RetrievePapers(q.Text, 40)
			if err != nil {
				t.Fatal(err)
			}
			reqs := make([]ExpertsRequest, shards)
			for rank, p := range papers {
				i := AssignShard(p, shards)
				reqs[i].Papers = append(reqs[i].Papers, RankedPaper{ID: int32(p), Rank: rank + 1})
			}
			resps := make([]*ShardExpertsResponse, shards)
			for i, se := range engines {
				if len(reqs[i].Papers) == 0 {
					continue // the router does not ask a shard that owns none
				}
				resp, err := se.ScoreExperts(reqs[i])
				if err != nil {
					t.Fatal(err)
				}
				resps[i] = &resp
			}
			_, st := ta.TopExperts(g, papers, 1)
			for _, n := range []int{1, 10, st.Candidates, st.Candidates + 5} {
				want, _ := ta.TopExperts(g, papers, n)
				got, candidates := finalRanking(resps, n)
				if candidates != st.Candidates || len(got) != len(want) {
					t.Fatalf("S=%d %q n=%d: merged %d of %d candidates, single node %d of %d",
						shards, q.Text, n, len(got), candidates, len(want), st.Candidates)
				}
				for i, e := range got {
					w := want[i]
					if e.id != int32(w.Expert) || math.Float64bits(e.score) != math.Float64bits(w.Score) {
						t.Fatalf("S=%d %q n=%d rank %d: merged (%d, %x), single node (%d, %x)", shards, q.Text,
							n, i+1, e.id, math.Float64bits(e.score), w.Expert, math.Float64bits(w.Score))
					}
					if e.name != g.Label(w.Expert) || e.papers != len(g.PapersOf(w.Expert)) {
						t.Fatalf("S=%d %q rank %d: metadata (%q, %d) is not expert %d's",
							shards, q.Text, i+1, e.name, e.papers, w.Expert)
					}
				}
			}
		}
	}
}

// TestRouterOneCertifiedRound pins the shape of a routed /experts: every
// shard is asked exactly twice — its papers, then the experts of the ranked
// papers it owns — every expert response is a complete list (Exhausted, and
// really holding every author of every paper sent), so one merge is final
// (ta_depth 1), and the ranking still matches single node bit for bit.
func TestRouterOneCertifiedRound(t *testing.T) {
	ds, eng := equivEngine(t)
	queries := ds.Queries(4, rand.New(rand.NewSource(9)))
	const m, n = 40, 10

	for _, shards := range []int{2, 3, 5} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			// Per shard: sub-requests served, and every /shard/experts
			// exchange (request, response).
			var mu sync.Mutex
			served := make([]int, shards)
			exchanges := make([][][2][]byte, shards)
			topo := startTopology(t, eng, shards, RouterConfig{}, ClientConfig{HedgeAfter: -1}, nil,
				func(shard, rep int, inner http.Handler) http.Handler {
					return interceptShard(inner, func(path string, req, resp []byte) []byte {
						mu.Lock()
						defer mu.Unlock()
						served[shard]++
						if path == "/shard/experts" {
							exchanges[shard] = append(exchanges[shard], [2][]byte{req, resp})
						}
						return resp
					})
				})
			for qi, q := range queries {
				want, _, err := eng.TopExperts(q.Text, m, n)
				if err != nil {
					t.Fatal(err)
				}
				got := queryExperts(t, topo.routerURL, q.Text, m, n)
				assertSameRanking(t, q.Text, got, want)
				if got.TADepth != 1 {
					t.Fatalf("query %q: ta_depth = %d, want 1", q.Text, got.TADepth)
				}
				mu.Lock()
				for i, got := range served {
					if got != 2*(qi+1) {
						t.Fatalf("query %q: shard %d has served %d sub-requests, want %d (2 per query)",
							q.Text, i, got, 2*(qi+1))
					}
				}
				mu.Unlock()
			}
			for i := range exchanges {
				if len(exchanges[i]) != len(queries) {
					t.Fatalf("shard %d served %d /shard/experts, want %d", i, len(exchanges[i]), len(queries))
				}
				for _, exchange := range exchanges[i] {
					req, err := decodeExpertsRequest(exchange[0])
					if err != nil {
						t.Fatalf("shard %d request: %v", i, err)
					}
					resp, err := decodeExpertsResponse(exchange[1])
					if err != nil {
						t.Fatalf("shard %d response: %v", i, err)
					}
					authors := map[hetgraph.NodeID]bool{}
					eng.ReadGraph(func(g *hetgraph.Graph) {
						for _, p := range req.Papers {
							for _, a := range g.AuthorsOf(hetgraph.NodeID(p.ID)) {
								authors[a] = true
							}
						}
					})
					if !resp.Exhausted || resp.Threshold != 0 || resp.Shard != i || len(resp.Experts) != len(authors) {
						t.Fatalf("shard %d answered exhausted=%v threshold=%v shard=%d with %d experts; want the complete list of %d",
							i, resp.Exhausted, resp.Threshold, resp.Shard, len(resp.Experts), len(authors))
					}
				}
			}
		})
	}
}

// TestRouterPapersMatchesSingleNode checks the retrieval route too: the
// merged /papers list must equal the single-node one.
func TestRouterPapersMatchesSingleNode(t *testing.T) {
	ds, eng := equivEngine(t)
	q := ds.Queries(1, rand.New(rand.NewSource(17)))[0]
	const m = 15

	single := httptest.NewServer(func() http.Handler {
		s := serve.New(eng)
		s.SetReady(true)
		return s
	}())
	defer single.Close()
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
	want := fetch(single.URL)
	got := fetch(topo.routerURL)
	if len(got) != len(want) {
		t.Fatalf("router returned %d papers, single node %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || got[i].Rank != want[i].Rank || got[i].Text != want[i].Text {
			t.Fatalf("paper %d: router %+v, single node %+v", i, got[i], want[i])
		}
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
