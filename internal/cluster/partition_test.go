package cluster

import (
	"testing"

	"expertfind/internal/hetgraph"
)

func TestAssignShardDeterministicAndInRange(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 4, 7} {
		for id := int32(0); id < 500; id++ {
			s := AssignShard(hetgraph.NodeID(id), shards)
			if s < 0 || s >= shards {
				t.Fatalf("AssignShard(%d, %d) = %d, out of range", id, shards, s)
			}
			if again := AssignShard(hetgraph.NodeID(id), shards); again != s {
				t.Fatalf("AssignShard(%d, %d) not deterministic: %d then %d", id, shards, s, again)
			}
		}
	}
}

func TestAssignShardSpreadsConsecutiveIDs(t *testing.T) {
	// The hash, not the raw id, decides placement: a run of consecutive
	// ids must not all land on one shard.
	counts := make([]int, 4)
	for id := int32(0); id < 100; id++ {
		counts[AssignShard(hetgraph.NodeID(id), 4)]++
	}
	for s, c := range counts {
		if c == 0 || c == 100 {
			t.Fatalf("shard %d owns %d of 100 consecutive ids: no spread", s, c)
		}
	}
}

// TestPartitionPapersCoversDisjointly: the shard engines of an S-way
// topology, each carving its slice out of the full engine by
// AssignShard, own every paper exactly once.
func TestPartitionPapersCoversDisjointly(t *testing.T) {
	_, eng := equivEngine(t)
	papers := eng.Graph().NodesOfType(hetgraph.Paper)
	for _, shards := range []int{2, 4} {
		total := 0
		engines := make([]*ShardEngine, shards)
		for id := range engines {
			se, err := NewShardEngine(eng, ShardConfig{ID: id, Of: shards})
			if err != nil {
				t.Fatal(err)
			}
			engines[id] = se
			total += se.NumOwned()
		}
		if total != len(papers) {
			t.Fatalf("%d shards own %d papers, graph has %d", shards, total, len(papers))
		}
		for _, p := range papers {
			for id, se := range engines {
				if want := AssignShard(p, shards) == id; se.owned[p] != want {
					t.Fatalf("paper %d: shard %d/%d Owns = %v, AssignShard says %v",
						p, id, shards, se.owned[p], want)
				}
			}
		}
	}
}
