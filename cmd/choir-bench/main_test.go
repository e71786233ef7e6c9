package main

import (
	"strings"
	"testing"
)

// TestCompareReportsGates pins the -compare gate: which old/new pairs count
// as failures and what the delta table says about them.
func TestCompareReportsGates(t *testing.T) {
	for _, tc := range []struct {
		name     string
		old, cur Result
		dropped  bool // cur is absent from the new report
		failures int
		want     string
	}{
		{
			name:    "removed benchmark is not a failure",
			old:     Result{Name: "BenchmarkGone", NsPerOp: 100, PinNs: true},
			dropped: true,
			want:    "removed",
		},
		{
			name:     "ns per op regression fails",
			old:      Result{Name: "BenchmarkSlow", NsPerOp: 100, PinNs: true},
			cur:      Result{Name: "BenchmarkSlow", NsPerOp: 120, PinNs: true},
			failures: 1,
			want:     "FAIL ns/op regression > 15%",
		},
		{
			name:     "frames per sec drop fails",
			old:      Result{Name: "BenchmarkGateway", NsPerOp: 100, FramesPerSec: 100, PinNs: true},
			cur:      Result{Name: "BenchmarkGateway", NsPerOp: 100, FramesPerSec: 80, PinNs: true},
			failures: 1,
			want:     "FAIL frames/sec 100 -> 80",
		},
		{
			name:     "any allocs per op increase fails",
			old:      Result{Name: "BenchmarkKernel", NsPerOp: 100, AllocsPerOp: 0, PinAllocs: true},
			cur:      Result{Name: "BenchmarkKernel", NsPerOp: 100, AllocsPerOp: 1, PinAllocs: true},
			failures: 1,
			want:     "FAIL allocs/op 0 -> 1",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			old := &Report{Benchmarks: []Result{tc.old}}
			cur := &Report{}
			if !tc.dropped {
				cur.Benchmarks = []Result{tc.cur}
			}
			var out strings.Builder
			if got := compareReports(&out, old, cur, 0.15); got != tc.failures {
				t.Errorf("failures = %d, want %d\n%s", got, tc.failures, out.String())
			}
			line := ""
			for _, l := range strings.Split(out.String(), "\n") {
				if strings.HasPrefix(l, tc.old.Name+" ") {
					line = l
				}
			}
			if !strings.HasSuffix(line, tc.want) {
				t.Errorf("row for %s = %q, want it to end in %q", tc.old.Name, line, tc.want)
			}
		})
	}
}
