package obs

// RegisterWellKnown pre-registers the metric families fed through the
// pipeline sinks (pgindex, ta, train), fixing their types and help text
// before the first measurement arrives — otherwise Observe would
// auto-register everything as a help-less counter. Idempotent; call it
// wherever a registry is wired to sinks.
func RegisterWellKnown(r *Registry) {
	for name, help := range map[string]string{
		"expertfind_pgindex_searches_total":              "PG-Index greedy searches executed.",
		"expertfind_pgindex_hops_total":                  "PG-Index node expansions (search hops) across all searches.",
		"expertfind_pgindex_nodes_visited_total":         "PG-Index nodes visited across all searches.",
		"expertfind_pgindex_distance_computations_total": "Distance computations across all PG-Index searches.",
		"expertfind_ta_runs_total":                       "Expert rankings executed (ta.TopExperts runs).",
		"expertfind_ta_candidates_total":                 "Distinct candidate experts scored across all rankings.",
		"expertfind_ta_depth_total":                      "Longest author list among the ranked papers, summed across all rankings.",
		"expertfind_ta_sorted_accesses_total":            "(expert, paper) score entries summed across all rankings.",
		"expertfind_train_runs_total":                    "Fine-tuning runs completed.",
		"expertfind_train_epochs_total":                  "Fine-tuning epochs completed.",
		"expertfind_train_epoch_seconds_total":           "Cumulative wall time spent in training epochs.",
		"expertfind_train_triples_total":                 "Training triples consumed by fine-tuning runs.",
		"expertfind_train_steps_total":                   "Optimiser steps taken by fine-tuning runs.",

		// Concurrent query-serving layer (core query cache + serve).
		"expertfind_qcache_hits_total":          "Query-cache lookups answered from the cache.",
		"expertfind_qcache_misses_total":        "Query-cache lookups that fell through to a full query.",
		"expertfind_qcache_evictions_total":     "Query-cache entries evicted by the LRU size bound.",
		"expertfind_qcache_expired_total":       "Query-cache entries dropped because their TTL elapsed.",
		"expertfind_qcache_invalidations_total": "Whole-cache invalidations triggered by graph updates.",
		"expertfind_singleflight_shared_total":  "Queries answered by piggybacking on a concurrent identical query.",
		"expertfind_query_abandoned_total":      "Queries abandoned because their context was cancelled or timed out.",
		"expertfind_updates_total":              "Online papers added to a built engine.",
		"expertfind_http_shed_total":            "Query requests shed because the in-flight limit was reached.",
		"expertfind_http_timeouts_total":        "Query requests that exceeded their deadline.",
	} {
		r.Counter(name, help)
	}
	r.Gauge("expertfind_train_loss", "Mean triplet loss of the most recent training epoch.")
	r.Gauge("expertfind_qcache_entries", "Query-cache entries currently resident.")
	r.declare("expertfind_stage_seconds",
		"Duration of pipeline stages, labelled by span path.", histogramKind, nil)
	r.declare("expertfind_traces_kept_total",
		"Traces retained by the trace store, by keep rule.", counterKind, nil)
	r.declare("expertfind_traces_dropped_total",
		"Traces offered to the trace store but kept by no rule.", counterKind, nil)
	r.declare("expertfind_slow_queries_total",
		"Queries slower than the slow-query log threshold.", counterKind, nil)
}

// RegisterCluster pre-declares the sharded-cluster metric families — the
// router's per-shard fan-out instrumentation — so they expose the right
// type and help text before the first scatter. Per-shard series carry a
// shard="<id>" label (and replica="<addr>" where noted); declaring the
// family here does not create an unlabelled series.
func RegisterCluster(r *Registry) {
	for name, help := range map[string]string{
		"expertfind_cluster_fanout_errors_total":     "Failed shard sub-requests (after all retries), by shard.",
		"expertfind_cluster_retries_total":           "Shard sub-request retries, by shard.",
		"expertfind_cluster_hedges_total":            "Hedged (duplicate) shard sub-requests launched, by shard.",
		"expertfind_cluster_hedge_wins_total":        "Hedged shard sub-requests that finished before the primary, by shard.",
		"expertfind_cluster_ejections_total":         "Replica ejections after consecutive failures, by shard and replica.",
		"expertfind_cluster_readmissions_total":      "Ejected replicas re-admitted by a successful probe, by shard and replica.",
		"expertfind_cluster_wire_bytes_total":        "Response bytes read from shard sub-requests, by shard.",
		"expertfind_cluster_shard_unavailable_total": "Queries failed because a whole shard (every replica) was unreachable.",
	} {
		r.declare(name, help, counterKind, nil)
	}
	r.declare("expertfind_cluster_fanout_seconds",
		"Latency of shard sub-requests, by shard.", histogramKind, nil)
	r.declare("expertfind_cluster_replicas_alive",
		"Non-ejected replicas per shard.", gaugeKind, nil)
}

// RegisterReplication pre-declares the WAL-shipping replication metric
// families — follower lag and position, leader-side follower tracking,
// and epoch-fencing events — so they expose the right type and help
// text before replication starts moving.
func RegisterReplication(r *Registry) {
	for name, help := range map[string]string{
		"expertfind_replication_records_applied_total": "WAL records received from the leader and applied.",
		"expertfind_replication_reconnects_total":      "Tail stream failures followed by a backoff and reconnect.",
		"expertfind_replication_stream_tears_total":    "Tail streams cut mid-record (resumed from the applied prefix).",
		"expertfind_replication_stream_errors_total":   "Tail streams aborted mid-flight by a read error.",
		"expertfind_replication_fences_total":          "Times this node's WAL was fenced by a newer replication epoch.",
		"expertfind_replication_promotions_total":      "Times this node was promoted from follower to leader.",
		"expertfind_http_fenced_writes_total":          "Writes rejected because this node's WAL is fenced by a newer epoch.",
	} {
		r.Counter(name, help)
	}
	r.Gauge("expertfind_replication_lag_seq",
		"WAL sequences this follower trails its leader by.")
	r.Gauge("expertfind_replication_applied_seq",
		"Last WAL sequence this follower has applied.")
	r.Gauge("expertfind_replication_caught_up",
		"1 when the follower has applied everything the leader acknowledged.")
	r.Gauge("expertfind_replication_epoch",
		"Persisted replication epoch of this node's WAL.")
	r.Gauge("expertfind_replication_fenced",
		"1 when this node's WAL is fenced by a newer epoch.")
	r.Gauge("expertfind_replication_followers",
		"Live replication followers tracked by this leader.")
	r.Gauge("expertfind_replication_low_water_seq",
		"Lowest WAL sequence applied by any live follower.")
	r.Gauge("expertfind_replication_bootstrap_seconds",
		"Duration of the most recent follower snapshot bootstrap.")
}
