// Package cluster is the multi-process topology of the system: a
// deterministic paper-to-shard assignment, a shard server mode exposing
// complete partial rankings over internal /shard/* APIs, and a router mode
// that scatter-gathers those partials and merges them through the
// single-node scorer (see DESIGN.md, "Sharded cluster layer").
//
// Shards own disjoint subsets of the papers, assigned by a hash of the
// paper id that every process computes identically, so the router needs no
// placement service: ownership is a pure function of (paper id, shard
// count). Authors are not partitioned — an author's global score is the
// sum of per-shard partial scores over the papers each shard owns.
package cluster

import "expertfind/internal/hetgraph"

// AssignShard returns the shard (0..shards-1) owning paper p: FNV-1a over
// the id's little-endian bytes, reduced modulo the shard count. The hash —
// not the raw id — decides ownership so consecutive ids (papers generated
// or ingested together, likely on related topics) spread across shards
// instead of landing on one.
func AssignShard(p hetgraph.NodeID, shards int) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	v := uint32(p)
	for i := 0; i < 4; i++ {
		h ^= v & 0xff
		h *= prime32
		v >>= 8
	}
	return int(h % uint32(shards))
}
