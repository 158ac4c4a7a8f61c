package ta

import "sync/atomic"

// Sink receives named measurements from every TopExperts run, so a
// service can watch candidate-set sizes and author-list lengths across
// requests (obs.Registry satisfies the interface). Stats remains the
// per-call report.
type Sink interface {
	Observe(name string, v float64)
}

type sinkBox struct{ s Sink }

var sinkHolder atomic.Value

// SetSink installs the package-wide measurement sink; nil disables
// recording. Safe to call concurrently with rankings.
func SetSink(s Sink) { sinkHolder.Store(sinkBox{s}) }

func currentSink() Sink {
	if b, ok := sinkHolder.Load().(sinkBox); ok {
		return b.s
	}
	return nil
}

// record forwards one run's stats to the sink, if installed.
func (st Stats) record() {
	s := currentSink()
	if s == nil {
		return
	}
	s.Observe("expertfind_ta_runs_total", 1)
	s.Observe("expertfind_ta_candidates_total", float64(st.Candidates))
	s.Observe("expertfind_ta_depth_total", float64(st.Depth))
	s.Observe("expertfind_ta_sorted_accesses_total", float64(st.SortedAccesses))
}
