package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"expertfind/internal/core"
	"expertfind/internal/dataset"
	"expertfind/internal/durable"
	"expertfind/internal/hetgraph"
	"expertfind/internal/obs"
)

// The replication fault suite, in-process: leader and follower run as
// real HTTP servers on the loopback, records move over the wire in the
// WAL format, and every scenario ends with the follower's rankings
// Float64bits-identical to a single node that saw the same updates.
// Process-level SIGKILL variants live in cmd/expertserve.

const replCorpus = 120

// replLeader is a durable leader served over loopback HTTP with the
// replication surface mounted.
type replLeader struct {
	store *core.Store
	srv   *Server
	ts    *httptest.Server
	ds    *dataset.Dataset
	reg   *obs.Registry
}

func buildReplEngine(g *hetgraph.Graph, reg *obs.Registry) (*core.Engine, error) {
	return core.Build(g, core.Options{
		Dim: 8, Seed: 7, UseKPCore: core.Bool(false), Metrics: reg,
	})
}

func startReplLeader(t *testing.T, segBytes int64, followerTTL time.Duration) *replLeader {
	t.Helper()
	dir := t.TempDir()
	ds := dataset.Generate(dataset.AminerSim(replCorpus))
	reg := obs.NewRegistry()
	store, err := core.OpenStore(dir, ds.Graph,
		func() (*core.Engine, error) { return buildReplEngine(ds.Graph, reg) },
		core.StoreOptions{SegmentBytes: segBytes, Metrics: reg, FollowerTTL: followerTTL})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	srv := New(store.Engine())
	srv.SetReady(true)
	MountReplication(srv, store)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return &replLeader{store: store, srv: srv, ts: ts, ds: ds, reg: reg}
}

// replFollower is a following store served over loopback HTTP, wired
// the way cmd/expertserve wires role=follower.
type replFollower struct {
	fo  *core.Store
	srv *Server
	ts  *httptest.Server
	reg *obs.Registry
	dir string
}

func startReplFollower(t *testing.T, leaderURL, dir string, maxLag uint64) *replFollower {
	t.Helper()
	if dir == "" {
		dir = t.TempDir()
	}
	g := dataset.Generate(dataset.AminerSim(replCorpus)).Graph
	reg := obs.NewRegistry()
	fo, err := core.OpenStore(dir, g, nil, core.StoreOptions{
		Leader: leaderURL, FollowerID: "test-follower", PollInterval: 10 * time.Millisecond,
		MaxLag: maxLag, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(fo.Engine())
	MountReplication(srv, fo)
	srv.SetReady(true)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	t.Cleanup(func() { fo.Close() })
	return &replFollower{fo: fo, srv: srv, ts: ts, reg: reg, dir: dir}
}

// addPapers applies n deterministic updates starting at index start —
// the same call against any engine over the same base corpus produces
// bit-identical state, which is what the equivalence assertions lean on.
func addPapers(t *testing.T, e *core.Engine, start, n int) {
	t.Helper()
	authors := e.Graph().NodesOfType(hetgraph.Author)
	for i := start; i < start+n; i++ {
		_, err := e.AddPaper(core.NewPaper{
			Text: fmt.Sprintf("replicated paper %d on heterogeneous graph embedding", i),
			Authors: []hetgraph.NodeID{
				authors[i%len(authors)], authors[(i*7+3)%len(authors)],
			},
		})
		if err != nil {
			t.Fatalf("add paper %d: %v", i, err)
		}
	}
}

func waitFor(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func waitApplied(t *testing.T, fo *core.Store, seq uint64) {
	t.Helper()
	waitFor(t, fmt.Sprintf("follower to apply seq %d", seq), 20*time.Second, func() bool {
		return fo.Status().CaughtUp && fo.LastSeq() >= seq
	})
}

// assertEnginesEqual compares rankings bit for bit: ids, order, score
// bits — ties included, since tie order falls out of the deterministic
// scan order both engines must share.
func assertEnginesEqual(t *testing.T, ds *dataset.Dataset, want, got *core.Engine) {
	t.Helper()
	queries := ds.Queries(5, rand.New(rand.NewSource(3)))
	for _, q := range queries {
		w, _, err := want.TopExperts(q.Text, 40, 10)
		if err != nil {
			t.Fatal(err)
		}
		g, _, err := got.TopExperts(q.Text, 40, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(w) != len(g) {
			t.Fatalf("query %q: %d vs %d experts", q.Text, len(w), len(g))
		}
		for i := range w {
			if w[i].Expert != g[i].Expert {
				t.Fatalf("query %q rank %d: expert %d vs %d", q.Text, i+1, w[i].Expert, g[i].Expert)
			}
			if math.Float64bits(w[i].Score) != math.Float64bits(g[i].Score) {
				t.Fatalf("query %q rank %d: score bits %x vs %x", q.Text, i+1,
					math.Float64bits(w[i].Score), math.Float64bits(g[i].Score))
			}
		}
	}
}

// TestFollowerCatchUpBitIdentical is the base case: bootstrap from the
// leader's snapshot, tail the WAL, converge, and serve the leader's
// exact rankings — then keep converging as the leader keeps writing.
func TestFollowerCatchUpBitIdentical(t *testing.T) {
	ld := startReplLeader(t, 0, 0)
	addPapers(t, ld.store.Engine(), 0, 8)

	fw := startReplFollower(t, ld.ts.URL, "", 0)
	waitApplied(t, fw.fo, 8)
	assertEnginesEqual(t, ld.ds, ld.store.Engine(), fw.fo.Engine())

	// Writes issued while the follower is live replicate too.
	addPapers(t, ld.store.Engine(), 8, 5)
	waitApplied(t, fw.fo, 13)
	assertEnginesEqual(t, ld.ds, ld.store.Engine(), fw.fo.Engine())

	// The follower's /readyz is open and /add is refused with a hint.
	resp, err := http.Get(fw.ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("caught-up follower /readyz = %d, want 200", resp.StatusCode)
	}
	post, err := http.Post(fw.ts.URL+"/add", "application/json",
		strings.NewReader(`{"text":"x","authors":[1]}`))
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("follower /add = %d, want 503", post.StatusCode)
	}
	if post.Header.Get("Retry-After") == "" {
		t.Fatal("follower /add 503 must carry Retry-After")
	}
}

// TestFollowerStatusIsOneInstant polls Status while a follower tails a
// leader that takes writes. Each read must describe one instant of the
// follower: caught_up is never published beside a lag or a not-ready
// flag, whatever poll or record apply lands while Status runs.
func TestFollowerStatusIsOneInstant(t *testing.T) {
	ld := startReplLeader(t, 0, 0)
	fw := startReplFollower(t, ld.ts.URL, "", 0)

	stop := make(chan struct{})
	var reads, torn atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := fw.fo.Status()
				reads.Add(1)
				if st.CaughtUp && (st.Lag != 0 || !st.Ready) && torn.Add(1) == 1 {
					t.Errorf("torn status: caught_up with lag_seq %d, ready %v (applied %d, leader %d)",
						st.Lag, st.Ready, st.Applied, st.LeaderSeq)
				}
			}
		}()
	}
	const writes = 60
	for i := 0; i < writes; i++ {
		addPapers(t, ld.store.Engine(), i, 1)
		time.Sleep(time.Duration(i%4) * time.Millisecond)
	}
	waitApplied(t, fw.fo, writes)
	close(stop)
	wg.Wait()
	if reads.Load() < writes {
		t.Fatalf("only %d status reads across %d writes", reads.Load(), writes)
	}
	t.Logf("%d status reads, %d torn", reads.Load(), torn.Load())
}

// TestFollowerAndLeaderStatusFields: /replication/status is one shape on
// every node, and each role still reports every field it reported when a
// leader and a follower answered with two shapes, under the same names.
func TestFollowerAndLeaderStatusFields(t *testing.T) {
	ld := startReplLeader(t, 0, 0)
	addPapers(t, ld.store.Engine(), 0, 3)
	fw := startReplFollower(t, ld.ts.URL, "", 0)
	waitApplied(t, fw.fo, 3)
	addPapers(t, ld.store.Engine(), 3, 1) // the next poll reports the follower's low-water

	leaderFields := []string{"role", "epoch", "fenced", "last_seq", "follower_low_water_seq"}
	followerFields := []string{"role", "leader", "epoch", "applied_seq", "leader_seq", "lag_seq", "caught_up", "ready"}
	status := func(base string) map[string]any {
		t.Helper()
		resp, err := http.Get(base + core.ReplStatusPath)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	check := func(who, role string, got map[string]any, fields []string) {
		t.Helper()
		if got["role"] != role {
			t.Fatalf("%s status role %v, want %s: %v", who, got["role"], role, got)
		}
		for _, f := range fields {
			if _, ok := got[f]; !ok {
				t.Errorf("%s status lacks %q: %v", who, f, got)
			}
		}
	}
	waitApplied(t, fw.fo, 4)
	check("leader", "leader", status(ld.ts.URL), leaderFields)
	check("follower", "follower", status(fw.ts.URL), followerFields)
	if got := status(fw.ts.URL); got["leader"] != ld.ts.URL || got["applied_seq"] != 4.0 {
		t.Fatalf("follower status %v, want leader %s and applied_seq 4", got, ld.ts.URL)
	}

	if _, err := fw.fo.Promote(); err != nil {
		t.Fatal(err)
	}
	check("promoted follower", "leader", status(fw.ts.URL), leaderFields[:4])
}

// TestFollowerRestartResumes is the in-process shape of the
// killed-mid-catch-up fault: the follower stops with replication
// incomplete, the leader keeps writing, and a reopen over the same
// directory recovers locally and resumes from its last applied
// sequence — ending bit-identical.
func TestFollowerRestartResumes(t *testing.T) {
	ld := startReplLeader(t, 0, 0)
	addPapers(t, ld.store.Engine(), 0, 6)

	dir := t.TempDir()
	fw := startReplFollower(t, ld.ts.URL, dir, 0)
	waitApplied(t, fw.fo, 6)
	if err := fw.fo.Close(); err != nil {
		t.Fatal(err)
	}

	// The follower is down; the leader moves on.
	addPapers(t, ld.store.Engine(), 6, 7)

	fw2 := startReplFollower(t, ld.ts.URL, dir, 0)
	if got := fw2.fo.LastSeq(); got < 6 {
		t.Fatalf("reopened follower lost progress: applied %d, want >= 6", got)
	}
	waitApplied(t, fw2.fo, 13)
	assertEnginesEqual(t, ld.ds, ld.store.Engine(), fw2.fo.Engine())
}

// TestTornWireResumes cuts the tail stream mid-record several times: the
// follower must apply each intact prefix, resume from its last applied
// sequence, and still converge to bit-identical state.
func TestTornWireResumes(t *testing.T) {
	ld := startReplLeader(t, 0, 0)
	addPapers(t, ld.store.Engine(), 0, 10)

	var tears atomic.Int32
	tears.Store(3)
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, err := http.NewRequest(r.Method, ld.ts.URL+r.URL.RequestURI(), r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		req.Header = r.Header.Clone()
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if r.URL.Path == core.ReplWALPath && resp.StatusCode == http.StatusOK &&
			len(b) > 24 && tears.Add(-1) >= 0 {
			b = b[:len(b)-9] // cut the last record mid-payload
		}
		for k, vs := range resp.Header {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.Header().Del("Content-Length") // the body may be shorter now
		w.WriteHeader(resp.StatusCode)
		w.Write(b)
	}))
	t.Cleanup(proxy.Close)

	fw := startReplFollower(t, proxy.URL, "", 0)
	waitApplied(t, fw.fo, 10)
	assertEnginesEqual(t, ld.ds, ld.store.Engine(), fw.fo.Engine())
	if got := fw.reg.Counter("expertfind_replication_stream_tears_total", "").Value(); got == 0 {
		t.Fatal("the torn-wire path was never exercised")
	}
}

// TestPromotionFencesStaleLeader is the change-over scenario: a caught-up
// follower is promoted (epoch bump), the old leader is fenced, its
// writes and its tail stream are rejected, and the new leader's state —
// including writes accepted after promotion — is bit-identical to a
// single node that saw the same update sequence.
func TestPromotionFencesStaleLeader(t *testing.T) {
	ld := startReplLeader(t, 0, 0)
	addPapers(t, ld.store.Engine(), 0, 5)

	fw := startReplFollower(t, ld.ts.URL, "", 0)
	waitApplied(t, fw.fo, 5)

	// Before promotion the follower refuses writes.
	pre, err := http.Post(fw.ts.URL+"/add", "application/json",
		strings.NewReader(`{"text":"x","authors":[1]}`))
	if err != nil {
		t.Fatal(err)
	}
	pre.Body.Close()
	if pre.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("pre-promotion /add = %d, want 503", pre.StatusCode)
	}

	// Promote over HTTP, the way the runbook does it.
	presp, err := http.Post(fw.ts.URL+core.ReplPromotePath, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var promoted struct {
		Promoted bool   `json:"promoted"`
		Epoch    uint64 `json:"epoch"`
	}
	if err := json.NewDecoder(presp.Body).Decode(&promoted); err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if !promoted.Promoted || promoted.Epoch != 1 {
		t.Fatalf("promotion: %+v", promoted)
	}

	// Fence the old leader at the new epoch (it is still reachable here;
	// were it dead, the first tail request from a re-pointed follower
	// would fence it on revival).
	fresp, err := http.Post(ld.ts.URL+core.ReplFencePath, "application/json",
		strings.NewReader(fmt.Sprintf(`{"epoch": %d}`, promoted.Epoch)))
	if err != nil {
		t.Fatal(err)
	}
	fresp.Body.Close()
	if fresp.StatusCode != http.StatusOK {
		t.Fatalf("fence old leader = %d, want 200", fresp.StatusCode)
	}

	// The deposed leader's writes are rejected with 409 — a permanent
	// conflict, not a retryable 503.
	authors := ld.ds.Graph.NodesOfType(hetgraph.Author)
	stale, err := http.Post(ld.ts.URL+"/add", "application/json",
		strings.NewReader(fmt.Sprintf(`{"text":"stale write","authors":[%d]}`, authors[0])))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(stale.Body)
	stale.Body.Close()
	if stale.StatusCode != http.StatusConflict {
		t.Fatalf("deposed leader /add = %d (%s), want 409", stale.StatusCode, body)
	}
	if !strings.Contains(string(body), "fenced") {
		t.Fatalf("deposed leader /add body %q does not mention fencing", body)
	}
	// And so is its tail stream.
	tail, err := http.Get(ld.ts.URL + core.ReplWALPath + "?from=1")
	if err != nil {
		t.Fatal(err)
	}
	tail.Body.Close()
	if tail.StatusCode != http.StatusConflict {
		t.Fatalf("deposed leader tail = %d, want 409", tail.StatusCode)
	}
	// The engine-level append is the typed FencedError.
	var fe *durable.FencedError
	if _, err := ld.store.Engine().AddPaper(core.NewPaper{
		Text: "stale", Authors: []hetgraph.NodeID{authors[0]},
	}); !asFenced(err, &fe) {
		t.Fatalf("deposed leader AddPaper: got %v, want *FencedError", err)
	}

	// The new leader accepts writes now.
	addPapers(t, fw.fo.Engine(), 5, 4)
	if got := fw.fo.LastSeq(); got != 9 {
		t.Fatalf("new leader seq = %d, want 9 (5 replicated + 4 own)", got)
	}

	// Ground truth: a single node that saw the same 9 updates.
	ref := dataset.Generate(dataset.AminerSim(replCorpus))
	refEng, err := buildReplEngine(ref.Graph, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	addPapers(t, refEng, 0, 9)
	assertEnginesEqual(t, ld.ds, refEng, fw.fo.Engine())
}

// asFenced unwraps err looking for a *durable.FencedError (through the
// core.UpdateLogError wrapper).
func asFenced(err error, fe **durable.FencedError) bool {
	for err != nil {
		if f, ok := err.(*durable.FencedError); ok {
			*fe = f
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// TestPassiveFencing: a tail request carrying a higher epoch is proof of
// a newer leader — the node must fence itself on the spot, without any
// explicit /replication/fence call.
func TestPassiveFencing(t *testing.T) {
	ld := startReplLeader(t, 0, 0)
	addPapers(t, ld.store.Engine(), 0, 2)

	// A fence that is not beyond our epoch cannot depose an unfenced node.
	fresp, err := http.Post(ld.ts.URL+core.ReplFencePath, "application/json",
		strings.NewReader(`{"epoch": 0}`))
	if err != nil {
		t.Fatal(err)
	}
	fresp.Body.Close()
	if fresp.StatusCode != http.StatusConflict {
		t.Fatalf("stale fence on unfenced node = %d, want 409", fresp.StatusCode)
	}

	req, _ := http.NewRequest(http.MethodGet, ld.ts.URL+core.ReplWALPath+"?from=1", nil)
	req.Header.Set(core.ReplEpochHeader, "3")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("higher-epoch tail = %d, want 409", resp.StatusCode)
	}
	if !ld.store.Fenced() || ld.store.Epoch() != 3 {
		t.Fatalf("leader not passively fenced: epoch %d fenced %v",
			ld.store.Epoch(), ld.store.Fenced())
	}
	// Re-fencing an already-fenced node at a lower epoch is an idempotent
	// no-op: it stays fenced at the higher epoch.
	fresp, err = http.Post(ld.ts.URL+core.ReplFencePath, "application/json",
		strings.NewReader(`{"epoch": 2}`))
	if err != nil {
		t.Fatal(err)
	}
	fresp.Body.Close()
	if fresp.StatusCode != http.StatusOK {
		t.Fatalf("re-fence below current = %d, want 200 no-op", fresp.StatusCode)
	}
	if ld.store.Epoch() != 3 {
		t.Fatalf("no-op re-fence moved the epoch to %d", ld.store.Epoch())
	}
}

// TestLowWaterTruncationGuard: the snapshot loop must never truncate
// records a live follower still needs, and must reclaim them once the
// follower has been silent past the TTL.
func TestLowWaterTruncationGuard(t *testing.T) {
	ld := startReplLeader(t, 512, 300*time.Millisecond) // tiny segments rotate fast
	ld.store.ObserveFollower("slow-follower", 3)        // applied through 3, needs 4+
	addPapers(t, ld.store.Engine(), 0, 20)

	if err := ld.store.Snapshot(); err != nil {
		t.Fatal(err)
	}
	it, err := ld.store.ReadWALFrom(4)
	if err != nil {
		t.Fatalf("records pinned by a live follower were truncated: %v", err)
	}
	seq, _, err := it.Next()
	if err != nil || seq != 4 {
		t.Fatalf("read pinned records: seq %d err %v, want 4", seq, err)
	}
	it.Close()
	// Over HTTP the same position streams fine.
	resp, err := http.Get(ld.ts.URL + core.ReplWALPath + "?from=4")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tail from pinned position = %d, want 200", resp.StatusCode)
	}

	// Silence past the TTL releases the pin; the next snapshot reclaims.
	time.Sleep(400 * time.Millisecond)
	if err := ld.store.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if _, err := ld.store.ReadWALFrom(4); err != durable.ErrCompacted {
		t.Fatalf("expired follower still pins the log: %v", err)
	}
	resp, err = http.Get(ld.ts.URL + core.ReplWALPath + "?from=4")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("tail below compaction = %d, want 410", resp.StatusCode)
	}
}

// TestFollowerBehindCompactionStops: a follower reopened after its leader
// compacted the records it needs past its TTL cannot catch up by retrying.
// Its tail stops: the error stays in /replication/status, the reconnect
// counter stops growing, /readyz answers 503 with the remedy, and Close
// and Promote still return at once.
func TestFollowerBehindCompactionStops(t *testing.T) {
	ld := startReplLeader(t, 512, 300*time.Millisecond)
	addPapers(t, ld.store.Engine(), 0, 3)
	dir := t.TempDir()
	fw := startReplFollower(t, ld.ts.URL, dir, 0)
	waitApplied(t, fw.fo, 3)
	if err := fw.fo.Close(); err != nil {
		t.Fatal(err)
	}
	addPapers(t, ld.store.Engine(), 3, 30)
	time.Sleep(400 * time.Millisecond) // past the follower TTL
	if err := ld.store.Snapshot(); err != nil {
		t.Fatal(err)
	}

	fw = startReplFollower(t, ld.ts.URL, dir, 0)
	waitFor(t, "the behind-leader error", 3*time.Second, func() bool {
		return fw.fo.Status().LastError == core.ErrBehindLeader.Error()
	})
	reconnects := fw.reg.Counter("expertfind_replication_reconnects_total", "")
	before := reconnects.Value()
	time.Sleep(300 * time.Millisecond) // 30 polls, and several backoffs
	if st := fw.fo.Status(); reconnects.Value() != before || st.Ready || st.Applied != 3 {
		t.Fatalf("after the behind-leader error: reconnects %v -> %v, status %+v", before, reconnects.Value(), st)
	}
	rec := httptest.NewRecorder()
	fw.srv.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	var body ReadyResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || rec.Code != http.StatusServiceUnavailable ||
		!strings.Contains(body.Status, "empty -data-dir") {
		t.Fatalf("/readyz = %d %q (%v), want 503 naming the remedy", rec.Code, rec.Body.String(), err)
	}

	start := time.Now()
	if epoch, err := fw.fo.Promote(); err != nil || epoch != 1 {
		t.Fatalf("Promote = %d, %v", epoch, err)
	}
	if err := fw.fo.Close(); err != nil || time.Since(start) > 3*time.Second {
		t.Fatalf("Promote and Close took %v (err %v)", time.Since(start), err)
	}
}

// TestRetryAfterOn503s pins the contract: every transient 503 — the boot
// gate's, the lag-gated follower /readyz, a not-ready /add or one a
// follower refuses, a WAL that refused the record, and the shedding path — carries
// Retry-After: 1.
func TestRetryAfterOn503s(t *testing.T) {
	retryAfterOne := func(what string, rec *httptest.ResponseRecorder) {
		t.Helper()
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("%s = %d, want 503", what, rec.Code)
		}
		if ra := rec.Header().Get("Retry-After"); ra != "1" {
			t.Fatalf("%s 503: Retry-After %q, want \"1\"", what, ra)
		}
	}
	do := func(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec
	}
	const add = `{"text":"x","authors":[1]}`

	// Boot gate: /readyz and arbitrary routes.
	g := NewGate()
	for _, path := range []string{"/readyz", "/experts?q=x"} {
		retryAfterOne("boot "+path, do(g, "GET", path, ""))
	}

	// Lag-gated follower readiness.
	s, ds := updateServer(t)
	s.ReadyProbe = func() (bool, string) { return false, "replication_lag" }
	rec := do(s, "GET", "/readyz", "")
	retryAfterOne("lagging /readyz", rec)
	var body ReadyResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "replication_lag" {
		t.Fatalf("lagging /readyz status %q, want replication_lag", body.Status)
	}

	// Not-ready /add.
	s.ReadyProbe = nil
	s.SetReady(false)
	retryAfterOne("not-ready /add", do(s, "POST", "/add", add))
	s.SetReady(true)

	// Writes refused by a following store's engine, whatever the paper.
	fw := startReplFollower(t, startReplLeader(t, 0, 0).ts.URL, "", 0)
	rec = do(fw.srv, "POST", "/add", add)
	retryAfterOne("follower /add", rec)
	if got, want := rec.Body.String(), "replication follower serves reads only; write to the leader\n"; got != want {
		t.Fatalf("follower /add body %q, want %q", got, want)
	}

	// A WAL that refuses the record.
	s.engine.SetUpdateLog(failingLog{})
	author := ds.Graph.NodesOfType(hetgraph.Author)[0]
	retryAfterOne("WAL-failure /add", do(s, "POST", "/add",
		fmt.Sprintf(`{"text":"x","authors":[%d]}`, author)))

	// Shedding past the in-flight bound.
	s.MaxInFlight = 1
	s.inflightQueries.Store(1)
	retryAfterOne("shed /experts", do(s, "GET", "/experts?q=x", ""))
}
