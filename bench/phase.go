package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"expertfind/internal/ta"
)

// sample is one timed operation of a phase.
type sample struct {
	pos   int // position in the operation sequence, the same in every pass
	write bool
	ms    float64
}

// answer keeps what a read returned, for checks after the phase.
type answer struct {
	query int
	ranks []ta.Ranking
}

type phaseResult struct {
	samples []sample
	wall    time.Duration
	failed  int
	acks    int      // writes acknowledged
	answers []answer // kept reads
	bytes   int64    // response bodies read
	errs    []string
}

// phaseLimit bounds a phase by passes over the operation sequence or by
// time; the zero field does not bound. A time-bounded phase runs on until
// it has made minPasses passes, so that every operation has repetitions
// to take the fastest of.
type phaseLimit struct {
	seconds float64
	passes  int
	keep    bool // keep every read's answer
}

// runPhase lets one client per door work through ops, pass after pass, in
// a closed loop. The clients share one cursor, so the sequence is issued
// in order.
func (e *env) runPhase(doors []door, ops []op, lim phaseLimit) phaseResult {
	// Every phase starts from a collected heap, as testing.B does, so the
	// garbage of the phase before is not this one's to pay for.
	runtime.GC()
	var next atomic.Int64
	budget := time.Duration(lim.seconds * float64(time.Second))
	hardCap := 5*budget + 20*time.Second
	parts := make([]phaseResult, len(doors))
	var wg sync.WaitGroup
	t0 := time.Now()
	for c, d := range doors {
		wg.Add(1)
		go func(d door, out *phaseResult) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if lim.passes > 0 && i >= lim.passes*len(ops) {
					return
				}
				if el := time.Since(t0); lim.seconds > 0 &&
					(el >= hardCap || (el >= budget && i >= minPasses*len(ops))) {
					return
				}
				pos := i % len(ops)
				o := ops[pos]
				name := "op.read"
				if o.write {
					name = "op.write"
				}
				sp := e.rec.start(name, -1, i)
				var rep reply
				var err error
				t := time.Now()
				if o.write {
					err = d.add(i, sp, o.paper)
				} else {
					rep, err = d.query(i, sp, e.pool[o.query].Text)
				}
				lat := time.Since(t)
				e.rec.end(sp)
				out.samples = append(out.samples, sample{pos, o.write, float64(lat.Nanoseconds()) / 1e6})
				if o.write {
					if err == nil {
						out.acks++
					}
				} else {
					out.bytes += int64(len(rep.body))
				}
				var ranks []ta.Ranking
				if err == nil && !o.write {
					ranks, err = d.decode(rep)
					if err == nil && !wellFormed(ranks) {
						err = errors.New("answer is not 20 experts in canonical order")
					}
				}
				if err != nil {
					out.failed++
					if len(out.errs) < 3 {
						out.errs = append(out.errs, err.Error())
					}
				} else if lim.keep && !o.write {
					out.answers = append(out.answers, answer{o.query, ranks})
				}
			}
		}(d, &parts[c])
	}
	wg.Wait()
	all := phaseResult{wall: time.Since(t0)}
	for _, p := range parts {
		all.samples = append(all.samples, p.samples...)
		all.answers = append(all.answers, p.answers...)
		all.failed += p.failed
		all.acks += p.acks
		all.bytes += p.bytes
		all.errs = append(all.errs, p.errs...)
	}
	return all
}

// latencies returns the phase's read or write latencies.
func (p phaseResult) latencies(write bool) []float64 {
	var out []float64
	for _, s := range p.samples {
		if s.write == write {
			out = append(out, s.ms)
		}
	}
	return out
}

// quiet is what a phase measured once the machine's interference is taken
// out: every position of the sequence at the fastest of its repetitions.
type quiet struct {
	reads []float64 // fastest repetition of every read, in milliseconds
	busy  float64   // the same summed over every operation, reads and writes
}

func (p phaseResult) quiet(ops []op) quiet {
	var q quiet
	for pos, ms := range bestOf(p.samples) {
		q.busy += ms
		if !ops[pos].write {
			q.reads = append(q.reads, ms)
		}
	}
	return q
}

// qps is the rate at which `clients` closed-loop clients complete the
// sequence's reads when every operation takes its fastest repetition:
// each client is busy all the time, so the sequence takes busy / clients.
func (q quiet) qps(clients int) float64 {
	if q.busy == 0 {
		return 0
	}
	return float64(clients) * float64(len(q.reads)) / (q.busy / 1000)
}

// p99 returns the 99th percentile of v, or, when v is too short for ten
// samples to lie beyond a p99, the highest percentile v supports, with a
// note saying which.
func (e *env) p99(what string, v []float64) float64 {
	p := 0.99
	if len(v) < minTailSamples {
		p = tailPercentile(len(v))
		e.res.Notes = append(e.res.Notes, fmt.Sprintf("%s: %d samples support p%g, not p99", what, len(v), p*100))
	}
	return percentile(sortedCopy(v), p)
}

// counters are the process-wide readings taken around the measured phase.
type counters struct {
	mem          runtime.MemStats
	hits, misses float64 // query cache
	deepFetches  float64 // router rounds past the first
}

func (e *env) readCounters() counters {
	var c counters
	runtime.ReadMemStats(&c.mem)
	c.hits = e.reg.Counter("expertfind_qcache_hits_total", "").Value()
	c.misses = e.reg.Counter("expertfind_qcache_misses_total", "").Value()
	c.deepFetches = e.reg.Counter("expertfind_cluster_deep_fetches_total", "").Value()
	return c
}

// checkPhase adds a phase's operations to the run's totals and keeps the
// first error messages as notes.
func (e *env) checkPhase(what string, p phaseResult) {
	e.check(what, len(p.samples), p.failed)
	for _, msg := range p.errs {
		e.res.Notes = append(e.res.Notes, what+": "+msg)
	}
	e.acked += p.acks
}

// measure runs the measured phase and, where that is read-only, the write
// phase after it. There is no separate warm-up: the phase repeats one
// sequence pass after pass and an operation counts at the fastest of its
// repetitions, which drops the cold ones.
func (e *env) measure() error {
	s := e.spec
	ops := makeOps(s, e.ds, e.pool, e.cfg.seed)
	if s.procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(s.procs))
	}

	lim := phaseLimit{seconds: e.cfg.seconds, keep: s.verifyEvery}
	if lim.seconds == 0 {
		lim.passes = fixedPasses
	}
	e.rec.setEnabled(false)
	var p phaseResult
	var writes []float64
	if e.cfg.traced {
		// Two halves of one phase: recorder off, then on. The difference
		// between their medians is what tracing costs.
		lim.seconds /= 2
		lim.passes = (lim.passes + 1) / 2
		before := e.readCounters()
		p = e.runPhase(e.doors, ops, lim)
		e.rec.setEnabled(true)
		traced := e.runPhase(e.doors, ops, lim)
		e.checkPhase("traced operation", traced)
		e.phaseLayerMetrics(ops, p, traced, before, e.readCounters())
		writes = traced.latencies(true)
	} else {
		p = e.runPhase(e.doors, ops, lim)
	}
	e.checkPhase("measured operation", p)
	q := p.quiet(ops)
	e.e2e.set("query_p50_ms", median(q.reads))
	e.e2e.set("query_qps", q.qps(s.clients))

	// What the clock said before the machine's interference was taken out.
	reads := p.latencies(false)
	e.res.Samples["query"] = len(reads)
	e.res.Samples["passes"] = len(p.samples) / len(ops)
	e.lay.set("bench.passes", float64(len(p.samples))/float64(len(ops)))
	e.lay.set("bench.raw_query_p50_ms", median(reads))
	e.lay.set("bench.raw_query_qps", float64(len(reads))/p.wall.Seconds())
	e.lay.set("core.query_p99_ms", e.p99("core.query_p99_ms", reads))

	if s.verifyEvery {
		failed := 0
		for _, a := range p.answers {
			want, _, err := e.eng.TopExperts(e.pool[a.query].Text, topM, topN)
			if e.cfg.corruptReference && len(want) > 1 {
				want[0], want[1] = want[1], want[0]
			}
			if err != nil || !sameRanking(a.ranks, want) {
				failed++
			}
		}
		e.check("router ranking equals Engine.TopExperts bit for bit", len(p.answers), failed)
	}

	writes = append(p.latencies(true), writes...)
	if s.writeEvery == 0 {
		// The measured phase was read-only; the writes follow it, one
		// client, one pass, through the same door.
		n := min(writeOps, 10*len(ops))
		w := e.runPhase(e.doors[:1], makeWrites(e.ds, e.pool, e.cfg.seed, n), phaseLimit{passes: 1})
		e.checkPhase("write", w)
		writes = w.latencies(true)
	}
	e.res.Samples["write"] = len(writes)
	e.lay.set("serve.write_p50_ms", median(writes))
	e.lay.set("serve.write_p99_ms", e.p99("serve.write_p99_ms", writes))
	return nil
}
