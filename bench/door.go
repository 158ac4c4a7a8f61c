package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"sync/atomic"
	"time"

	"expertfind/internal/core"
	"expertfind/internal/hetgraph"
	"expertfind/internal/serve"
	"expertfind/internal/ta"
)

// door is how one client reaches the system under test. query and add
// are what gets timed; decode runs after the clock stopped.
//
// op and span identify the operation and its client-side span; an HTTP
// door of a traced run sends them along, so the spans recorded around
// the servers' handlers join the operation that caused them.
type door interface {
	query(op, span int, text string) (reply, error)
	add(op, span int, p core.NewPaper) error
	decode(r reply) ([]ta.Ranking, error)
	close()
}

// reply is an answer as the door received it: a ranking from an
// in-process call, or the response body of an HTTP one.
type reply struct {
	ranks []ta.Ranking
	body  []byte
}

type inProcessDoor struct{ eng *core.Engine }

func (d inProcessDoor) query(_, _ int, text string) (reply, error) {
	ranks, _, err := d.eng.TopExperts(text, topM, topN)
	return reply{ranks: ranks}, err
}

func (d inProcessDoor) add(_, _ int, p core.NewPaper) error {
	_, err := d.eng.AddPaper(p)
	return err
}

func (d inProcessDoor) decode(r reply) ([]ta.Ranking, error) { return r.ranks, nil }

func (d inProcessDoor) close() {}

// httpDoor is one keep-alive HTTP client. Reads go to readURL (a server
// or the router), writes to writeURL (a server: the router takes none).
type httpDoor struct {
	client   *http.Client
	readURL  string
	writeURL string
}

func newHTTPDoor(readURL, writeURL string) *httpDoor {
	return &httpDoor{
		client:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
		readURL:  readURL,
		writeURL: writeURL,
	}
}

// opHeader carries "bench-<op>-<span>". The router forwards
// X-Request-ID to its shards, so their spans join the same operation.
const opHeader = "X-Request-ID"

func (d *httpDoor) do(req *http.Request, op, span int) ([]byte, error) {
	if span >= 0 {
		req.Header.Set(opHeader, fmt.Sprintf("bench-%d-%d", op, span))
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", req.Method, req.URL.Path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

func (d *httpDoor) close() { d.client.CloseIdleConnections() }

func (d *httpDoor) query(op, span int, text string) (reply, error) {
	req, err := http.NewRequest(http.MethodGet, d.readURL+"/experts?q="+url.QueryEscape(text)+
		"&m="+strconv.Itoa(topM)+"&n="+strconv.Itoa(topN), nil)
	if err != nil {
		return reply{}, err
	}
	body, err := d.do(req, op, span)
	return reply{body: body}, err
}

func (d *httpDoor) add(op, span int, p core.NewPaper) error {
	body, err := json.Marshal(serve.AddRequest{
		Text: p.Text, Authors: toInt32(p.Authors), Venues: toInt32(p.Venues), Topics: toInt32(p.Topics),
	})
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, d.writeURL+"/add", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	_, err = d.do(req, op, span)
	return err
}

func (d *httpDoor) decode(r reply) ([]ta.Ranking, error) {
	var resp serve.ExpertsResponse
	if err := json.Unmarshal(r.body, &resp); err != nil {
		return nil, err
	}
	ranks := make([]ta.Ranking, len(resp.Experts))
	for i, e := range resp.Experts {
		ranks[i] = ta.Ranking{Expert: hetgraph.NodeID(e.ID), Score: e.Score}
	}
	return ranks, nil
}

func toInt32(ids []hetgraph.NodeID) []int32 {
	out := make([]int32, len(ids))
	for i, id := range ids {
		out[i] = int32(id)
	}
	return out
}

// listen serves h on an ephemeral loopback port. stop closes the server
// and returns once its accept loop has ended.
func listen(h http.Handler) (addr string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // returns ErrServerClosed on stop
	}()
	return ln.Addr().String(), func() { _ = srv.Close(); <-done }, nil
}

// countingHandler measures a server from outside while the recorder is
// on: requests, response bytes and time inside the handler, and a span
// per request. With the recorder off it only forwards.
type countingHandler struct {
	next     http.Handler
	rec      *recorder
	requests atomic.Int64
	bytes    atomic.Int64
	busyNs   atomic.Int64
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

func (c *countingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !c.rec.enabled() {
		c.next.ServeHTTP(w, r)
		return
	}
	op, parent := -1, -1
	_, _ = fmt.Sscanf(r.Header.Get(opHeader), "bench-%d-%d", &op, &parent) // other ids stay -1
	sp := c.rec.start("serve"+r.URL.Path, parent, op)
	cw := &countingWriter{ResponseWriter: w}
	t0 := time.Now()
	c.next.ServeHTTP(cw, r)
	c.busyNs.Add(time.Since(t0).Nanoseconds())
	c.rec.end(sp)
	c.requests.Add(1)
	c.bytes.Add(cw.n)
}
