package pgindex

import "expertfind/internal/obs"

// Metrics aggregates SearchStats across the query searches of one owner
// (an engine, a shard) in that owner's registry.
type Metrics struct {
	searches, hops, visited, dists *obs.Counter
}

// NewMetrics creates the search counters in reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		searches: reg.Counter("expertfind_pgindex_searches_total", "PG-Index greedy searches executed."),
		hops:     reg.Counter("expertfind_pgindex_hops_total", "PG-Index node expansions (search hops) across all searches."),
		visited:  reg.Counter("expertfind_pgindex_nodes_visited_total", "PG-Index nodes visited across all searches."),
		dists:    reg.Counter("expertfind_pgindex_distance_computations_total", "Distance computations across all PG-Index searches."),
	}
}

// Record adds one search's work.
func (m *Metrics) Record(st SearchStats) {
	m.searches.Inc()
	m.hops.Add(float64(st.Expansions))
	m.visited.Add(float64(st.NodesVisited))
	m.dists.Add(float64(st.DistanceComputations))
}
