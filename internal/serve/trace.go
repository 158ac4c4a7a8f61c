package serve

import "expertfind/internal/obs"

// QueryDebug is the opt-in (?debug=1) diagnostics block of an /experts
// response: the query's trace id (joinable against /debug/traces and the
// slow-query log) and its per-stage latency breakdown.
type QueryDebug struct {
	TraceID string        `json:"trace_id,omitempty"`
	Stages  []StageTiming `json:"stages,omitempty"`
}

// StageTiming is one stage of a query's latency breakdown.
type StageTiming struct {
	Name string  `json:"name"`
	Ms   float64 `json:"ms"`
}

// StagesFromTree flattens the direct children of an assembled span tree
// into a stage breakdown — the router's ?debug=1 view of its fan-out.
func StagesFromTree(root obs.SpanNode) []StageTiming {
	out := make([]StageTiming, 0, len(root.Children))
	for _, c := range root.Children {
		out = append(out, StageTiming{Name: c.Name, Ms: float64(c.DurationNano) / 1e6})
	}
	return out
}

// TraceIndexResponse is the /debug/traces payload.
type TraceIndexResponse struct {
	Count  int                `json:"count"`
	Traces []obs.TraceSummary `json:"traces"`
}

// TraceResponse is the /debug/traces/{id} payload. Records is a slice
// because one node can retain several records for a trace (a shard
// serves both scatter rounds of one query).
type TraceResponse struct {
	TraceID string            `json:"trace_id"`
	Records []obs.TraceRecord `json:"records"`
}
