// Table II at full scale takes about 7 s, and about 55 s under the race
// detector. The race build leaves this check out: the code it runs is
// raced by the baselines, experiments and core packages' own tests.

//go:build !race

package main

import "testing"

// TestTableIIShowsOneRun: every Table II cell is deterministic, so a
// change that moves one fails here until it replaces the block with the
// run it prints.
func TestTableIIShowsOneRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs Table II at full scale")
	}
	showsWhatBenchtabPrints(t, "table2")
}
