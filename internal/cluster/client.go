package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"expertfind/internal/obs"
)

// ClientConfig tunes the router's fan-out behaviour.
type ClientConfig struct {
	// Retries is how many times one sub-request is retried on another
	// replica (or the same one, single-replica shards) after a failure,
	// each after a jittered wait that starts at retryBackoff.
	Retries int
	// HedgeAfter, when positive, launches a duplicate request to a second
	// replica when the first has not answered within this delay. Zero or
	// negative never hedges.
	HedgeAfter time.Duration
	// EjectAfter ejects a replica after this many consecutive failures
	// (default 3). Ejected replicas receive no traffic until a probe
	// re-admits them.
	EjectAfter int
	// ProbeInterval is the health-probe period for ejected replicas
	// (default 2s).
	ProbeInterval time.Duration
}

const (
	// retryBackoff is the base wait before a sub-request's first retry;
	// the actual wait is jittered uniformly in [backoff/2, backoff], and
	// the base doubles each retry.
	retryBackoff = 10 * time.Millisecond
	// probeTimeout bounds one health probe.
	probeTimeout = 500 * time.Millisecond
)

func (c ClientConfig) withDefaults() ClientConfig {
	if c.Retries < 0 {
		c.Retries = 0
	}
	if c.EjectAfter <= 0 {
		c.EjectAfter = 3
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	return c
}

// replica is one backend address of a shard with its health state.
type replica struct {
	addr                    string // host:port, no scheme
	ejections, readmissions *obs.Counter

	mu          sync.Mutex
	consecFails int
	ejected     bool
}

func (rp *replica) alive() bool {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	return !rp.ejected
}

// replicaSet is the replicas of one shard plus round-robin state, and
// the shard's fan-out handles.
type replicaSet struct {
	shard    int
	replicas []*replica
	next     uint32
	mu       sync.Mutex

	fanout                                        *obs.Histogram
	retries, errors, hedges, hedgeWins, wireBytes *obs.Counter
	alive                                         *obs.Gauge
}

// pick returns the next replica in rotation, preferring live ones and
// avoiding the given replica when an alternative exists (for hedges and
// retries). With every replica ejected it falls back to plain rotation —
// a fully dark shard is better probed with real traffic than failed
// without trying.
func (rs *replicaSet) pick(avoid *replica) *replica {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	n := len(rs.replicas)
	var fallback *replica
	for i := 0; i < n; i++ {
		rp := rs.replicas[int(rs.next)%n]
		rs.next++
		if rp == avoid {
			if fallback == nil {
				fallback = rp
			}
			continue
		}
		if rp.alive() {
			return rp
		}
		if fallback == nil {
			fallback = rp
		}
	}
	for i := 0; i < n; i++ { // all ejected or avoided: any non-avoided
		rp := rs.replicas[int(rs.next)%n]
		rs.next++
		if rp != avoid {
			return rp
		}
	}
	return fallback
}

func (rs *replicaSet) aliveCount() int {
	n := 0
	for _, rp := range rs.replicas {
		if rp.alive() {
			n++
		}
	}
	return n
}

// ShardClient performs the router's per-shard sub-requests with deadline
// budgets, bounded jittered retries, hedging and replica health tracking.
type ShardClient struct {
	sets []*replicaSet
	hc   *http.Client
	cfg  ClientConfig
	log  *slog.Logger

	rngMu sync.Mutex
	rng   *rand.Rand
}

// NewShardClient builds a client over one replica address list per shard,
// recording into reg (obs.Default() when nil) per shard and replica.
func NewShardClient(shards [][]string, cfg ClientConfig, reg *obs.Registry, log *slog.Logger) (*ShardClient, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("cluster: router needs at least one shard")
	}
	if reg == nil {
		reg = obs.Default()
	}
	if log == nil {
		log = obs.NopLogger()
	}
	c := &ShardClient{
		hc:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 32}},
		cfg: cfg.withDefaults(),
		log: log,
		rng: rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	for i, addrs := range shards {
		if len(addrs) == 0 {
			return nil, fmt.Errorf("cluster: shard %d has no replicas", i)
		}
		shard := obs.L("shard", strconv.Itoa(i))
		rs := &replicaSet{shard: i,
			fanout:    reg.Histogram("expertfind_cluster_fanout_seconds", "Latency of shard sub-requests, by shard.", nil, shard),
			retries:   reg.Counter("expertfind_cluster_retries_total", "Shard sub-request retries, by shard.", shard),
			errors:    reg.Counter("expertfind_cluster_fanout_errors_total", "Failed shard sub-requests (after all retries), by shard.", shard),
			hedges:    reg.Counter("expertfind_cluster_hedges_total", "Hedged (duplicate) shard sub-requests launched, by shard.", shard),
			hedgeWins: reg.Counter("expertfind_cluster_hedge_wins_total", "Hedged shard sub-requests that finished before the primary, by shard.", shard),
			wireBytes: reg.Counter("expertfind_cluster_wire_bytes_total", "Response bytes read from shard sub-requests, by shard.", shard),
			alive:     reg.Gauge("expertfind_cluster_replicas_alive", "Non-ejected replicas per shard.", shard),
		}
		for _, a := range addrs {
			labels := []obs.Label{obs.L("replica", a), shard}
			rs.replicas = append(rs.replicas, &replica{addr: a,
				ejections:    reg.Counter("expertfind_cluster_ejections_total", "Replica ejections after consecutive failures, by shard and replica.", labels...),
				readmissions: reg.Counter("expertfind_cluster_readmissions_total", "Ejected replicas re-admitted by a successful probe, by shard and replica.", labels...),
			})
		}
		c.sets = append(c.sets, rs)
		rs.alive.Set(float64(len(addrs)))
	}
	return c, nil
}

// NumShards returns the shard count of the topology.
func (c *ShardClient) NumShards() int { return len(c.sets) }

// Replicas returns the configured replica addresses per shard.
func (c *ShardClient) Replicas() [][]string {
	out := make([][]string, len(c.sets))
	for i, rs := range c.sets {
		for _, rp := range rs.replicas {
			out[i] = append(out[i], rp.addr)
		}
	}
	return out
}

// AliveReplicas returns the non-ejected replica count per shard.
func (c *ShardClient) AliveReplicas() []int {
	out := make([]int, len(c.sets))
	for i, rs := range c.sets {
		out[i] = rs.aliveCount()
	}
	return out
}

func (c *ShardClient) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	return d/2 + time.Duration(c.rng.Int63n(int64(d/2)+1))
}

// collectKey flags a context whose sub-requests should ask shards to
// return their span trees in the response envelope. The router sets it
// only when it holds a trace store — untraced deployments never pay the
// export or wire cost.
type collectKey struct{}

func withCollect(ctx context.Context) context.Context {
	return context.WithValue(ctx, collectKey{}, true)
}

func collectEnabled(ctx context.Context) bool {
	on, _ := ctx.Value(collectKey{}).(bool)
	return on
}

// shardError is a sub-request failure after all attempts; the router maps
// it to 502.
type shardError struct {
	shard int
	err   error
}

func (e *shardError) Error() string {
	return fmt.Sprintf("cluster: shard %d unavailable: %v", e.shard, e.err)
}
func (e *shardError) Unwrap() error { return e.err }

// Get runs a GET sub-request against shard, with retries and hedging, and
// returns the response body.
func (c *ShardClient) Get(ctx context.Context, shard int, path string) ([]byte, error) {
	rs := c.sets[shard]
	attempts := c.cfg.Retries + 1
	backoff := retryBackoff
	var last error
	var prev *replica
	for attempt := 0; attempt < attempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, &shardError{shard: shard, err: err}
		}
		if attempt > 0 {
			rs.retries.Inc()
			wait := c.jitter(backoff)
			backoff *= 2
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				return nil, &shardError{shard: shard, err: ctx.Err()}
			}
		}
		// Budget: split the remaining deadline evenly over the attempts
		// still available, so early failures leave time to retry.
		actx, cancel := c.attemptContext(ctx, attempts-attempt)
		rp := rs.pick(prev)
		prev = rp
		b, err := c.attempt(actx, rs, rp, path)
		cancel()
		if err == nil {
			return b, nil
		}
		last = err
	}
	rs.errors.Inc()
	return nil, &shardError{shard: shard, err: last}
}

// attemptContext derives one attempt's deadline from the request context:
// an equal split of the remaining budget across the attempts left.
func (c *ShardClient) attemptContext(ctx context.Context, attemptsLeft int) (context.Context, context.CancelFunc) {
	dl, ok := ctx.Deadline()
	if !ok {
		return context.WithCancel(ctx)
	}
	share := time.Until(dl) / time.Duration(attemptsLeft)
	return context.WithTimeout(ctx, share)
}

// attempt issues one (possibly hedged) request to the shard. On a hedge,
// the first response wins and the loser's context is cancelled. Each
// launched request gets its own "rpc" span — hedges appear as siblings —
// annotated with the replica it hit; the winning hedge additionally gets
// a hedge_win mark, and an attempt abandoned in flight is closed with a
// cancelled mark before attempt returns (attributes are safe to set
// after End, which only freezes timing).
func (c *ShardClient) attempt(ctx context.Context, rs *replicaSet, rp *replica, path string) ([]byte, error) {
	type outcome struct {
		body   []byte
		err    error
		rp     *replica
		hedged bool
		span   *obs.Span
	}
	results := make(chan outcome, 2)
	hctx, cancelAll := context.WithCancel(ctx)
	defer cancelAll()

	// Any attempt still in flight when attempt() returns is being
	// abandoned (hedge loser, or the whole request cancelled). Its span
	// must be closed here, not by the losing goroutine: the caller can
	// serialize the trace tree immediately after return, and an open span
	// would show up with a still-running clock. EndIfOpen leaves spans
	// that finished on their own untouched, so only genuinely interrupted
	// attempts get the cancelled mark.
	var launched []*obs.Span
	defer func() {
		for _, sp := range launched {
			if sp.EndIfOpen() {
				sp.Annotate("cancelled", "1")
			}
		}
	}()

	launch := func(target *replica, hedged bool) {
		sctx, span := obs.StartSpan(hctx, "rpc")
		span.Annotate("replica", target.addr)
		span.Annotate("shard", strconv.Itoa(rs.shard))
		if hedged {
			span.Annotate("hedge", "1")
		}
		launched = append(launched, span)
		go func() {
			b, err := c.send(sctx, rs.shard, target, path)
			span.End()
			if err != nil {
				span.Annotate("error", err.Error())
			}
			results <- outcome{body: b, err: err, rp: target, hedged: hedged, span: span}
		}()
	}
	launch(rp, false)

	var hedgeTimer <-chan time.Time
	if c.cfg.HedgeAfter > 0 && rs.aliveCount() > 1 {
		t := time.NewTimer(c.cfg.HedgeAfter)
		defer t.Stop()
		hedgeTimer = t.C
	}

	inflight := 1
	for {
		select {
		case <-hedgeTimer:
			hedgeTimer = nil
			second := rs.pick(rp)
			if second == nil || second == rp {
				continue
			}
			rs.hedges.Inc()
			inflight++
			launch(second, true)
		case out := <-results:
			inflight--
			if out.err == nil {
				if out.hedged {
					rs.hedgeWins.Inc()
					out.span.Annotate("hedge_win", "1")
				}
				cancelAll() // the loser, if any, stops now
				return out.body, nil
			}
			if inflight == 0 {
				return nil, out.err
			}
			// One of two in-flight requests failed; wait for the other.
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// send issues one GET to one replica and settles its health
// accounting: success resets the failure streak, failure advances it and
// ejects past the threshold. A response, whatever its status, proves the
// replica alive; only 5xx, transport errors and a response frame that
// claims another shard (a replica started with the wrong -shard-id) count
// as failures.
func (c *ShardClient) send(ctx context.Context, shard int, rp *replica, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+rp.addr+path, nil)
	if err != nil {
		return nil, err
	}
	if dl, ok := ctx.Deadline(); ok {
		ms := int(time.Until(dl).Milliseconds())
		if ms < 1 {
			ms = 1
		}
		req.Header.Set(BudgetHeader, strconv.Itoa(ms))
	}
	// Forward the router's request ID so access logs join across nodes,
	// and the trace context so the shard's spans land in this query's
	// trace instead of a fresh one.
	if reqID, ok := ctx.Value(requestIDKey{}).(string); ok && reqID != "" {
		req.Header.Set("X-Request-ID", reqID)
	}
	obs.InjectTrace(ctx, req.Header)
	if collectEnabled(ctx) {
		req.Header.Set(obs.CollectHeader, "1")
	}

	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		c.fail(shard, rp, err)
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	rs := c.sets[shard]
	rs.fanout.Observe(time.Since(start).Seconds())
	rs.wireBytes.Add(float64(len(b)))
	if err != nil {
		c.fail(shard, rp, err)
		return nil, err
	}
	if resp.StatusCode >= 500 {
		err := fmt.Errorf("replica %s: status %d: %s", rp.addr, resp.StatusCode, firstLine(b))
		c.fail(shard, rp, err)
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		// 4xx is the router's bug, not the replica's health problem.
		return nil, fmt.Errorf("replica %s: status %d: %s", rp.addr, resp.StatusCode, firstLine(b))
	}
	if got, ok := frameShard(b); ok && got != shard {
		err := fmt.Errorf("replica %s: answered as shard %d, asked as shard %d", rp.addr, got, shard)
		c.fail(shard, rp, err)
		return nil, err
	}
	c.succeed(shard, rp)
	return b, nil
}

func (c *ShardClient) succeed(shard int, rp *replica) {
	rp.mu.Lock()
	rp.consecFails = 0
	readmitted := rp.ejected
	rp.ejected = false
	rp.mu.Unlock()
	if readmitted {
		c.readmitted(shard, rp, "traffic")
	}
}

func (c *ShardClient) fail(shard int, rp *replica, cause error) {
	// A cancelled context is the caller's doing — the primary won a hedge
	// race (often while the loser's body was still being read), or the
	// query was abandoned — and says nothing about this replica's health.
	// Counting it would eject healthy replicas on every hedge, permanently
	// disabling hedging for the shard.
	if errors.Is(cause, context.Canceled) {
		return
	}
	rp.mu.Lock()
	rp.consecFails++
	eject := !rp.ejected && rp.consecFails >= c.cfg.EjectAfter
	if eject {
		rp.ejected = true
	}
	rp.mu.Unlock()
	if eject {
		rp.ejections.Inc()
		c.sets[shard].alive.Set(float64(c.sets[shard].aliveCount()))
		c.log.Warn("replica_ejected", "shard", shard, "replica", rp.addr,
			"consec_fails", c.cfg.EjectAfter, "cause", cause)
	}
}

func (c *ShardClient) readmitted(shard int, rp *replica, how string) {
	rp.readmissions.Inc()
	c.sets[shard].alive.Set(float64(c.sets[shard].aliveCount()))
	c.log.Info("replica_readmitted", "shard", shard, "replica", rp.addr, "via", how)
}

// StartProbes launches the background health-probe loop: every
// ProbeInterval, each ejected replica gets a GET /readyz; a 200 clears
// its failure streak and re-admits it. The loop exits when ctx ends.
func (c *ShardClient) StartProbes(ctx context.Context) {
	go func() {
		t := time.NewTicker(c.cfg.ProbeInterval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				c.probeOnce(ctx)
			}
		}
	}()
}

func (c *ShardClient) probeOnce(ctx context.Context) {
	for _, rs := range c.sets {
		for _, rp := range rs.replicas {
			rp.mu.Lock()
			ejected := rp.ejected
			rp.mu.Unlock()
			if !ejected {
				continue
			}
			pctx, cancel := context.WithTimeout(ctx, probeTimeout)
			ok := c.probe(pctx, rp)
			cancel()
			if !ok {
				continue
			}
			rp.mu.Lock()
			rp.consecFails = 0
			rp.ejected = false
			rp.mu.Unlock()
			c.readmitted(rs.shard, rp, "probe")
		}
	}
}

// probe checks a replica's /readyz without touching failure accounting:
// probes decide re-admission only, never ejection.
func (c *ShardClient) probe(ctx context.Context, rp *replica) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+rp.addr+"/readyz", nil)
	if err != nil {
		return false
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// CheckReady reports whether every shard has at least one replica
// answering /readyz 200 right now — the router's boot readiness scan.
func (c *ShardClient) CheckReady(ctx context.Context) bool {
	for _, rs := range c.sets {
		ok := false
		for _, rp := range rs.replicas {
			pctx, cancel := context.WithTimeout(ctx, probeTimeout)
			alive := c.probe(pctx, rp)
			cancel()
			if alive {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

func firstLine(b []byte) string {
	for i, c := range b {
		if c == '\n' {
			return string(b[:i])
		}
		if i > 160 {
			return string(b[:i]) + "..."
		}
	}
	return string(b)
}
