package vec

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// TestPoolRows64TakesAVX2WhereTheCPUHasIt holds the CPUID/XGETBV check to
// the kernels' own: PoolRows64, PoolRows32 and L2SqRows32 take their AVX2 bodies for
// 64-wide rows exactly when /proc/cpuinfo lists avx2. A check that
// wrongly says no would fall back to the per-token loop or to one row per
// SSE2 register, which every bit test passes.
func TestPoolRows64TakesAVX2WhereTheCPUHasIt(t *testing.T) {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo to check against: %v", err)
	}
	listed := false
	for _, line := range strings.Split(string(b), "\n") {
		if name, flags, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			listed = slices.Contains(strings.Fields(flags), "avx2")
			break
		}
	}
	if got := poolsInAVX2(64); got != listed {
		t.Fatalf("PoolRows64 takes the AVX2 body for 64-wide rows: %v; /proc/cpuinfo lists avx2: %v", got, listed)
	}
	if got := poolsInAVX232(64); got != listed {
		t.Fatalf("PoolRows32 takes the AVX2 body for 64-wide rows: %v; /proc/cpuinfo lists avx2: %v", got, listed)
	}
	if got := scansInAVX2(64); got != listed {
		t.Fatalf("L2SqRows32 takes the AVX2 body for 64-wide rows: %v; /proc/cpuinfo lists avx2: %v", got, listed)
	}
	for _, dim := range []int{0, 12, 48} {
		if poolsInAVX2(dim) {
			t.Errorf("PoolRows64 takes the AVX2 body for %d-wide rows", dim)
		}
	}
	for _, dim := range []int{0, 12, 67} {
		if scansInAVX2(dim) {
			t.Errorf("L2SqRows32 takes the AVX2 body for %d-wide rows", dim)
		}
	}
}
