package ta

import "expertfind/internal/obs"

// Metrics aggregates Stats across the rankings of one owner (an engine, a
// router) in that owner's registry.
type Metrics struct {
	runs, candidates, depth, accesses *obs.Counter
}

// NewMetrics creates the ranking counters in reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		runs:       reg.Counter("expertfind_ta_runs_total", "Expert rankings executed (ta.TopExperts runs)."),
		candidates: reg.Counter("expertfind_ta_candidates_total", "Distinct candidate experts scored across all rankings."),
		depth:      reg.Counter("expertfind_ta_depth_total", "Longest author list among the ranked papers, summed across all rankings."),
		accesses:   reg.Counter("expertfind_ta_sorted_accesses_total", "(expert, paper) score entries summed across all rankings."),
	}
}

// Record adds one ranking's work.
func (m *Metrics) Record(st Stats) {
	m.runs.Inc()
	m.candidates.Add(float64(st.Candidates))
	m.depth.Add(float64(st.Depth))
	m.accesses.Add(float64(st.SortedAccesses))
}
