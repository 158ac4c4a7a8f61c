package main

import (
	"flag"
	"testing"
)

// TestRetiredFlagsAreUnknown: -data-dir is the one persistence path, the
// WAL fsyncs always or never, and a cached answer lives as long as its
// generation, so the flags that chose otherwise are refused as unknown.
func TestRetiredFlagsAreUnknown(t *testing.T) {
	for _, name := range []string{"engine", "save", "fsync-interval", "query-cache-ttl"} {
		if flag.Lookup(name) != nil {
			t.Errorf("-%s is still a flag", name)
		}
	}
	if got := flag.Lookup("fsync").Usage; got != "WAL fsync policy: always, never" {
		t.Errorf("-fsync help %q lists other policies", got)
	}
}
