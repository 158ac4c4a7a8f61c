// Table II at full scale takes about 7 s, and about 55 s under the race
// detector; the significance test about 3 s. The race build leaves these
// checks out: the code they run is raced by the baselines, experiments
// and core packages' own tests.

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

// TestSignificanceShowsOneRun: the bootstrap's cells are deterministic
// too (its only time is the completion line), so a change to the scoring
// loop that moves a per-query AP fails here.
func TestSignificanceShowsOneRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the significance test at full scale")
	}
	showsWhatBenchtabPrints(t, "sig")
}
