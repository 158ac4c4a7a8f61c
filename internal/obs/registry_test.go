package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(2.5)
	if got := c.Value(); got != 3.5 {
		t.Errorf("counter = %v, want 3.5", got)
	}
	// Same name+labels returns the same handle.
	if r.Counter("c_total", "a counter") != c {
		t.Error("counter not deduplicated")
	}
	g := r.Gauge("g", "a gauge")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Errorf("gauge = %v, want 5", got)
	}
	// Distinct labels create distinct series.
	a := r.Counter("routes_total", "", L("route", "/a"))
	b := r.Counter("routes_total", "", L("route", "/b"))
	if a == b {
		t.Error("labelled series not distinct")
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "", []float64{0.01, 0.1, 1})
	for i := 0; i < 90; i++ {
		h.Observe(0.005) // first bucket
	}
	for i := 0; i < 9; i++ {
		h.Observe(0.05) // second bucket
	}
	h.Observe(5) // +Inf bucket
	if h.Count() != 100 {
		t.Fatalf("count = %d, want 100", h.Count())
	}
	if p50 := h.Quantile(0.5); p50 <= 0 || p50 > 0.01 {
		t.Errorf("p50 = %v, want in (0, 0.01]", p50)
	}
	if p99 := h.Quantile(0.99); p99 <= 0.01 || p99 > 0.1 {
		t.Errorf("p99 = %v, want in (0.01, 0.1]", p99)
	}
	// Tail in +Inf clamps to the largest finite bound.
	if q := h.Quantile(0.9999); q != 1 {
		t.Errorf("extreme quantile = %v, want clamp to 1", q)
	}
	if q := r.Histogram("empty_seconds", "", []float64{1}).Quantile(0.5); q != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", q)
	}
}

func TestObserveRouting(t *testing.T) {
	r := NewRegistry()
	r.Histogram("h_seconds", "", []float64{1, 10})
	r.Gauge("g", "")
	r.Observe("h_seconds", 0.5)
	r.Observe("g", 42)
	r.Observe("new_total", 3) // auto-registered counter
	r.Observe("new_total", 4)
	if got := r.Histogram("h_seconds", "", nil).Count(); got != 1 {
		t.Errorf("histogram observations = %d, want 1", got)
	}
	if got := r.Gauge("g", "").Value(); got != 42 {
		t.Errorf("gauge = %v, want 42", got)
	}
	if got := r.Counter("new_total", "").Value(); got != 7 {
		t.Errorf("auto counter = %v, want 7", got)
	}
}

// TestConcurrentUpdates hammers one histogram, counter and gauge from many
// goroutines; run with -race. The exact sum checks catch lost updates.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 16, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := r.Histogram("conc_seconds", "", nil, L("route", "/x"))
			c := r.Counter("conc_total", "")
			g := r.Gauge("conc_inflight", "")
			for i := 0; i < perWorker; i++ {
				h.Observe(0.001)
				c.Inc()
				g.Add(1)
				g.Add(-1)
			}
		}(w)
	}
	wg.Wait()
	h := r.Histogram("conc_seconds", "", nil, L("route", "/x"))
	if got := h.Count(); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
	if got := h.Sum(); math.Abs(got-workers*perWorker*0.001) > 1e-6 {
		t.Errorf("histogram sum = %v", got)
	}
	if got := r.Counter("conc_total", "").Value(); got != workers*perWorker {
		t.Errorf("counter = %v, want %d", got, workers*perWorker)
	}
	if got := r.Gauge("conc_inflight", "").Value(); got != 0 {
		t.Errorf("gauge = %v, want 0", got)
	}
}

// TestPrometheusGolden pins the full text exposition of a small registry.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("expertfind_http_requests_total", "HTTP requests.",
		L("route", "/experts"), L("code", "200")).Add(3)
	r.Gauge("expertfind_http_in_flight", "In-flight requests.").Set(1)
	h := r.Histogram("expertfind_http_request_seconds", "Request latency.",
		[]float64{0.1, 1}, L("route", "/experts"))
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(2)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP expertfind_http_in_flight In-flight requests.
# TYPE expertfind_http_in_flight gauge
expertfind_http_in_flight 1
# HELP expertfind_http_request_seconds Request latency.
# TYPE expertfind_http_request_seconds histogram
expertfind_http_request_seconds_bucket{route="/experts",le="0.1"} 1
expertfind_http_request_seconds_bucket{route="/experts",le="1"} 2
expertfind_http_request_seconds_bucket{route="/experts",le="+Inf"} 3
expertfind_http_request_seconds_sum{route="/experts"} 2.55
expertfind_http_request_seconds_count{route="/experts"} 3
# HELP expertfind_http_requests_total HTTP requests.
# TYPE expertfind_http_requests_total counter
expertfind_http_requests_total{code="200",route="/experts"} 3
`
	if got := b.String(); got != want {
		t.Errorf("prometheus output mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "", L("q", `he said "hi"`+"\n")).Inc()
	var b strings.Builder
	r.WritePrometheus(&b)
	if !strings.Contains(b.String(), `q="he said \"hi\"\n"`) {
		t.Errorf("labels not escaped: %s", b.String())
	}
}

// TestEscapeLabel pins the exposition escaping of backslash, quote and
// newline, and that a value with none of them comes back as it went in.
func TestEscapeLabel(t *testing.T) {
	for in, want := range map[string]string{
		"":                "",
		"/experts":        "/experts",
		"query/rank":      "query/rank",
		`C:\dir`:          `C:\\dir`,
		`say "hi"`:        `say \"hi\"`,
		"two\nlines":      `two\nlines`,
		"\\\"\n":          `\\\"\n`,
		`already \\ done`: `already \\\\ done`,
	} {
		if got := escapeLabel(in); got != want {
			t.Errorf("escapeLabel(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "").Add(2)
	r.Histogram("b_seconds", "", []float64{1}).Observe(0.5)
	snap := r.Snapshot()
	if v, ok := snap["a_total"].(float64); !ok || v != 2 {
		t.Errorf("snapshot a_total = %v", snap["a_total"])
	}
	hs, ok := snap["b_seconds"].(HistogramSummary)
	if !ok || hs.Count != 1 || hs.Sum != 0.5 {
		t.Errorf("snapshot b_seconds = %+v", snap["b_seconds"])
	}
}

// TestGetSeriesLabelOrderIndependent: two labels in either order name one
// series, rendered in key order; the registry keeps the signature, not
// the caller's slice; and finding an existing series allocates nothing
// when the labels arrive in key order.
func TestGetSeriesLabelOrderIndependent(t *testing.T) {
	r := NewRegistry()
	labels := []Label{L("route", "/experts"), L("code", "200")}
	c := r.Counter("req_total", "", labels...)
	c.Inc()
	if r.Counter("req_total", "", L("code", "200"), L("route", "/experts")) != c {
		t.Fatal("the same labels in the other order made a second series")
	}
	if labels[0].Key != "route" {
		t.Errorf("the lookup reordered its caller's slice: %v", labels)
	}
	labels[0], labels[1] = L("zone", "x"), L("code", "500") // the caller reuses its slice
	if r.Counter("req_total", "", L("route", "/experts"), L("code", "200")) != c {
		t.Error("the stored series aliased the caller's slice")
	}
	var b strings.Builder
	r.WritePrometheus(&b)
	if want := `req_total{code="200",route="/experts"} 1`; !strings.Contains(b.String(), want) {
		t.Errorf("exposition lacks %q:\n%s", want, b.String())
	}

	h := r.Histogram("stage_seconds", "", nil, L("stage", "query/encode"))
	for name, lookup := range map[string]func(){
		"no label":          func() { r.Counter("plain_total", "").Inc() },
		"one label":         func() { r.Histogram("stage_seconds", "", nil, L("stage", "query/encode")).Observe(1) },
		"two sorted labels": func() { r.Counter("req_total", "", L("code", "200"), L("route", "/experts")).Inc() },
	} {
		lookup()
		if allocs := testing.AllocsPerRun(100, lookup); allocs != 0 {
			t.Errorf("%s: a lookup of an existing series made %v allocations, want 0", name, allocs)
		}
	}
	if h.Count() < 100 {
		t.Errorf("the one-label lookups observed into another histogram: count %d", h.Count())
	}
}
