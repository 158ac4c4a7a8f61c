package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"expertfind/internal/dataset"
	"expertfind/internal/hetgraph"
)

// TestReplicationFailoverE2E drives the full failover story against real
// processes: a leader acknowledges writes, a follower bootstraps and
// tails them, the follower survives SIGKILL mid-stream, the leader is
// SIGKILLed and the follower promoted with a bumped epoch, the deposed
// leader comes back and is fenced, and at the end the promoted node's
// rankings are Float64bits-identical to a fresh single node that saw the
// same update sequence.
func TestReplicationFailoverE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes and builds the binary")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "expertserve")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	leaderAddr := freeAddr(t)
	followerAddr := freeAddr(t)
	leaderBase := "http://" + leaderAddr
	followerBase := "http://" + followerAddr
	leaderDir := filepath.Join(tmp, "leader")
	followerDir := filepath.Join(tmp, "follower")
	logPath := filepath.Join(tmp, "server.log")

	start := func(args ...string) *exec.Cmd {
		logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		common := []string{
			"-dataset", "aminer", "-papers", "120", "-dim", "8",
			"-fsync", "always", "-snapshot-interval", "0", "-query-cache", "0",
			"-drain-timeout", "5s",
		}
		cmd := exec.Command(bin, append(common, args...)...)
		cmd.Stdout = logf
		cmd.Stderr = logf
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait(); logf.Close() })
		return cmd
	}
	startLeader := func() *exec.Cmd {
		return start("-data-dir", leaderDir, "-addr", leaderAddr)
	}
	startFollower := func() *exec.Cmd {
		return start("-role", "follower", "-leader", leaderBase,
			"-data-dir", followerDir, "-addr", followerAddr,
			"-replication-poll", "25ms", "-follower-id", "e2e-follower")
	}
	defer func() {
		if t.Failed() {
			if b, err := os.ReadFile(logPath); err == nil {
				t.Logf("server log:\n%s", b)
			}
		}
	}()

	authors := dataset.Generate(dataset.AminerSim(120)).Graph.NodesOfType(hetgraph.Author)
	// addPaper posts one deterministic update; the same index i produces
	// the same paper wherever it is applied.
	addPaper := func(base string, i int) {
		t.Helper()
		body := fmt.Sprintf(`{"text":"failover paper %d on kp-core embeddings","authors":[%d,%d]}`,
			i, authors[i%len(authors)], authors[(i*7+3)%len(authors)])
		resp, err := http.Post(base+"/add", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := readBody(resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("add %d to %s: status %d: %s", i, base, resp.StatusCode, b)
		}
	}
	replStatus := func(base string) map[string]any {
		t.Helper()
		resp, err := http.Get(base + "/replication/status")
		if err != nil {
			t.Fatal(err)
		}
		b, _ := readBody(resp)
		var out map[string]any
		if err := json.Unmarshal(b, &out); err != nil {
			t.Fatalf("replication status: %v: %s", err, b)
		}
		return out
	}
	waitApplied := func(base string, seq float64) {
		t.Helper()
		deadline := time.Now().Add(60 * time.Second)
		for time.Now().Before(deadline) {
			st := replStatus(base)
			if applied, _ := st["applied_seq"].(float64); applied >= seq {
				if caught, _ := st["caught_up"].(bool); caught {
					return
				}
			}
			time.Sleep(50 * time.Millisecond)
		}
		t.Fatalf("follower never applied seq %v: %+v", seq, replStatus(base))
	}

	// Phase 1: leader up, 10 acknowledged writes, follower bootstraps and
	// catches up.
	leader := startLeader()
	waitReady(t, leaderBase)
	for i := 0; i < 10; i++ {
		addPaper(leaderBase, i)
	}
	follower := startFollower()
	waitReady(t, followerBase)
	waitApplied(followerBase, 10)

	// Phase 2: SIGKILL the follower, write while it is down, restart it on
	// the same directory — it must recover locally and resume the tail
	// from its last applied sequence.
	if err := follower.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	follower.Wait()
	for i := 10; i < 20; i++ {
		addPaper(leaderBase, i)
	}
	startFollower()
	waitReady(t, followerBase)
	waitApplied(followerBase, 20)

	// Phase 3: SIGKILL the leader, promote the follower. The epoch bumps.
	if err := leader.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	leader.Wait()
	presp, err := http.Post(followerBase+"/replication/promote", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	pb, _ := readBody(presp)
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("promote: status %d: %s", presp.StatusCode, pb)
	}
	var promoted struct {
		Promoted bool    `json:"promoted"`
		Epoch    float64 `json:"epoch"`
	}
	if err := json.Unmarshal(pb, &promoted); err != nil {
		t.Fatal(err)
	}
	if !promoted.Promoted || promoted.Epoch != 1 {
		t.Fatalf("promotion: %s", pb)
	}
	// The promoted node accepts writes now.
	for i := 20; i < 23; i++ {
		addPaper(followerBase, i)
	}

	// Phase 4: the deposed leader comes back from its old state, unaware
	// it was deposed. Fencing it at the new epoch makes its writes 409.
	startLeader()
	waitReady(t, leaderBase)
	fresp, err := http.Post(leaderBase+"/replication/fence", "application/json",
		strings.NewReader(`{"epoch": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	fb, _ := readBody(fresp)
	if fresp.StatusCode != http.StatusOK {
		t.Fatalf("fence deposed leader: status %d: %s", fresp.StatusCode, fb)
	}
	staleBody := fmt.Sprintf(`{"text":"stale write","authors":[%d]}`, authors[0])
	sresp, err := http.Post(leaderBase+"/add", "application/json", strings.NewReader(staleBody))
	if err != nil {
		t.Fatal(err)
	}
	sb, _ := readBody(sresp)
	if sresp.StatusCode != http.StatusConflict {
		t.Fatalf("deposed leader /add: status %d, want 409: %s", sresp.StatusCode, sb)
	}
	if !strings.Contains(string(sb), "fenced") {
		t.Fatalf("deposed leader /add body %q does not mention fencing", sb)
	}
	tresp, err := http.Get(leaderBase + "/replication/wal?from=1")
	if err != nil {
		t.Fatal(err)
	}
	tresp.Body.Close()
	if tresp.StatusCode != http.StatusConflict {
		t.Fatalf("deposed leader tail: status %d, want 409", tresp.StatusCode)
	}

	// Phase 5: ground truth. A fresh single node applies the same 23
	// updates; the promoted follower's rankings must match it bit for bit.
	refAddr := freeAddr(t)
	refBase := "http://" + refAddr
	start("-data-dir", filepath.Join(tmp, "ref"), "-addr", refAddr)
	waitReady(t, refBase)
	for i := 0; i < 23; i++ {
		addPaper(refBase, i)
	}

	queries := dataset.Generate(dataset.AminerSim(120)).Queries(5, rand.New(rand.NewSource(3)))
	type expert struct {
		ID    int32   `json:"id"`
		Rank  int     `json:"rank"`
		Score float64 `json:"score"`
	}
	fetch := func(base, q string) []expert {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("%s/experts?%s&m=40&n=10", base, url.Values{"q": {q}}.Encode()))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := readBody(resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %q on %s: status %d: %s", q, base, resp.StatusCode, b)
		}
		var out struct {
			Experts []expert `json:"experts"`
		}
		if err := json.Unmarshal(b, &out); err != nil {
			t.Fatal(err)
		}
		return out.Experts
	}
	for _, q := range queries {
		want := fetch(refBase, q.Text)
		got := fetch(followerBase, q.Text)
		if len(want) != len(got) {
			t.Fatalf("query %q: %d vs %d experts", q.Text, len(want), len(got))
		}
		for i := range want {
			if want[i].ID != got[i].ID {
				t.Fatalf("query %q rank %d: expert %d vs %d", q.Text, i+1, got[i].ID, want[i].ID)
			}
			if math.Float64bits(want[i].Score) != math.Float64bits(got[i].Score) {
				t.Fatalf("query %q rank %d: score bits %x vs %x", q.Text, i+1,
					math.Float64bits(got[i].Score), math.Float64bits(want[i].Score))
			}
		}
	}
}
