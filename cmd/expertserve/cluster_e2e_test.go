package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestClusterE2E is the end-to-end topology check the CI cluster job
// runs: build the real binary, launch a router plus three shard
// processes (shard 0 with two replicas), assert /readyz on every member,
// run a golden query through the router, SIGKILL one replica of shard 0,
// and require the same query to still answer 200 with identical
// rankings. /healthz must identify every topology member.
func TestClusterE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes and builds the binary")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "expertserve")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	logPath := filepath.Join(tmp, "cluster.log")
	defer func() {
		if t.Failed() {
			if b, err := os.ReadFile(logPath); err == nil {
				t.Logf("cluster log:\n%s", b)
			}
		}
	}()

	start := func(args ...string) *exec.Cmd {
		logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		cmd := exec.Command(bin, args...)
		cmd.Stdout = logf
		cmd.Stderr = logf
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait(); logf.Close() })
		return cmd
	}

	// Three shards over a small deterministic corpus; shard 0 runs twice
	// (two replicas of the identical deterministic build). Tracing is on
	// everywhere with sample rate 1, so every query's trace is retained.
	const shards = 3
	corpus := []string{"-dataset", "aminer", "-papers", "120", "-dim", "8", "-seed", "7",
		"-query-cache", "0", "-drain-timeout", "2s",
		"-trace-capacity", "64", "-trace-sample", "1"}
	shardAddrs := make([][]string, shards)
	for i := 0; i < shards; i++ {
		reps := 1
		if i == 0 {
			reps = 2
		}
		for r := 0; r < reps; r++ {
			addr := freeAddr(t)
			shardAddrs[i] = append(shardAddrs[i], addr)
		}
	}
	var procs [][]*exec.Cmd // [shard][replica]
	for i := 0; i < shards; i++ {
		var ps []*exec.Cmd
		for _, addr := range shardAddrs[i] {
			args := append([]string{"-role", "shard",
				"-shards", fmt.Sprint(shards), "-shard-id", fmt.Sprint(i),
				"-addr", addr}, corpus...)
			ps = append(ps, start(args...))
		}
		procs = append(procs, ps)
	}

	routerAddr := freeAddr(t)
	var groups []string
	for _, g := range shardAddrs {
		groups = append(groups, strings.Join(g, "|"))
	}
	// -hedge-after 1ns hedges every sub-request to shard 0's second
	// replica, so the assembled trace must show a hedged attempt.
	start("-role", "router", "-addr", routerAddr,
		"-replicas", strings.Join(groups, ","),
		"-shard-retries", "2", "-probe-interval", "200ms", "-eject-after", "2",
		"-trace-capacity", "64", "-trace-sample", "1", "-hedge-after", "1ns")
	routerBase := "http://" + routerAddr

	// Readiness: every shard replica, then the router (which gates on all
	// shards being reachable).
	for i := range shardAddrs {
		for _, addr := range shardAddrs[i] {
			waitReady(t, "http://"+addr)
		}
	}
	waitReady(t, routerBase)

	// Topology identification on /healthz.
	var sh struct {
		Role    string `json:"role"`
		ShardID int    `json:"shard_id"`
		Shards  int    `json:"shards"`
	}
	getJSON(t, "http://"+shardAddrs[1][0]+"/healthz", &sh)
	if sh.Role != "shard" || sh.ShardID != 1 || sh.Shards != shards {
		t.Fatalf("shard healthz: %+v", sh)
	}
	var rh struct {
		Role     string     `json:"role"`
		Shards   int        `json:"shards"`
		Replicas [][]string `json:"replicas"`
	}
	getJSON(t, routerBase+"/healthz", &rh)
	if rh.Role != "router" || rh.Shards != shards || len(rh.Replicas[0]) != 2 {
		t.Fatalf("router healthz: %+v", rh)
	}

	// Golden query through the healthy topology.
	const goldenQuery = "graph embedding expert search"
	queryURL := routerBase + "/experts?" + url.Values{"q": {goldenQuery}}.Encode() + "&m=40&n=10"
	type expertsResp struct {
		Experts []struct {
			Rank  int     `json:"rank"`
			ID    int32   `json:"id"`
			Score float64 `json:"score"`
		} `json:"experts"`
	}
	var before expertsResp
	getJSON(t, queryURL, &before)
	if len(before.Experts) == 0 {
		t.Fatal("golden query returned no experts")
	}

	// One query with ?debug=1 must yield ONE assembled cross-node trace:
	// the router's span tree with every shard's subtree grafted in under
	// the same trace id, hedged attempt included. Asserted while the
	// topology is fully healthy, before the replica kill below.
	var dbg struct {
		Debug *struct {
			TraceID string `json:"trace_id"`
		} `json:"debug"`
	}
	getJSON(t, queryURL+"&debug=1", &dbg)
	if dbg.Debug == nil || len(dbg.Debug.TraceID) != 32 {
		t.Fatalf("debug=1 response has no usable trace id: %+v", dbg.Debug)
	}
	traceID := dbg.Debug.TraceID
	type spanNode struct {
		Name     string            `json:"name"`
		Attrs    map[string]string `json:"attrs"`
		Children []spanNode        `json:"children"`
	}
	var tr struct {
		TraceID string `json:"trace_id"`
		Records []struct {
			TraceID string   `json:"trace_id"`
			Kept    string   `json:"kept"`
			Root    spanNode `json:"root"`
		} `json:"records"`
	}
	getJSON(t, routerBase+"/debug/traces/"+traceID, &tr)
	if len(tr.Records) != 1 || tr.Records[0].TraceID != traceID {
		t.Fatalf("router trace %s: %+v", traceID, tr.Records)
	}
	root := tr.Records[0].Root
	if root.Name != "query" {
		t.Fatalf("assembled trace root %q, want query", root.Name)
	}
	shardsSeen := map[string]bool{}
	hedged := false
	var walk func(n spanNode)
	walk = func(n spanNode) {
		if n.Name == "shard_papers" {
			shardsSeen[n.Attrs["shard"]] = true
		}
		if n.Name == "rpc" && n.Attrs["hedge"] == "1" {
			hedged = true
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(root)
	for i := 0; i < shards; i++ {
		if !shardsSeen[fmt.Sprint(i)] {
			t.Errorf("assembled trace has no grafted subtree from shard %d (saw %v)",
				i, shardsSeen)
		}
	}
	if !hedged {
		t.Error("assembled trace shows no hedged rpc span despite -hedge-after 1ns")
	}
	// Cross-node identity: a shard process retains its own records under
	// the SAME trace id the router handed out.
	var shardTr struct {
		Records []struct {
			TraceID string `json:"trace_id"`
		} `json:"records"`
	}
	getJSON(t, "http://"+shardAddrs[1][0]+"/debug/traces/"+traceID, &shardTr)
	if len(shardTr.Records) == 0 {
		t.Fatalf("shard 1 retained no records for trace %s", traceID)
	}

	// SIGKILL one replica of shard 0 — no goodbye, no drain.
	if err := procs[0][1].Process.Kill(); err != nil {
		t.Fatal(err)
	}
	procs[0][1].Wait()

	// The same query must keep answering 200 with identical rankings —
	// strictly, no retry loop here: the router's own in-request retries
	// must absorb the dead replica. Several rounds, so the round-robin
	// rotation is guaranteed to trip over it.
	for round := 0; round < 4; round++ {
		resp, err := http.Get(queryURL)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		body, rerr := readBody(resp)
		if rerr != nil {
			t.Fatalf("round %d: %v", round, rerr)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d after kill: status %d, want 200: %s",
				round, resp.StatusCode, body)
		}
		var after expertsResp
		if err := json.Unmarshal(body, &after); err != nil {
			t.Fatalf("round %d: bad payload %v: %s", round, err, body)
		}
		if len(after.Experts) != len(before.Experts) {
			t.Fatalf("round %d: %d experts after kill, %d before",
				round, len(after.Experts), len(before.Experts))
		}
		for i := range before.Experts {
			if before.Experts[i] != after.Experts[i] {
				t.Fatalf("round %d rank %d: %+v after kill, want %+v",
					round, i+1, after.Experts[i], before.Experts[i])
			}
		}
	}

	// The fan-out metrics must be exposed on the router.
	resp, err := http.Get(routerBase + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mtx, _ := readBody(resp)
	for _, name := range []string{
		"expertfind_cluster_fanout_seconds",
		"expertfind_cluster_wire_bytes_total",
		"expertfind_cluster_replicas_alive",
	} {
		if !strings.Contains(string(mtx), name) {
			t.Errorf("/metrics is missing %s", name)
		}
	}
}

func getJSON(t *testing.T, url string, v interface{}) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(url)
		if err == nil {
			b, rerr := readBody(resp)
			if rerr == nil && resp.StatusCode == http.StatusOK {
				if err := json.Unmarshal(b, v); err != nil {
					t.Fatalf("GET %s: bad payload %v: %s", url, err, b)
				}
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, b)
			}
		} else if time.Now().After(deadline) {
			t.Fatalf("GET %s: %v", url, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}
