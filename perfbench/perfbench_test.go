package main

import (
	"encoding/json"
	"math/rand/v2"
	"os"
	"sync"
	"testing"
	"time"
)

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n, idx int
		pct    float64
	}{
		{1000, 989, 99},
		{100, 89, 90},
		{480, 469, 97.916},
		{11, 0, 9.09},
		{5, 4, 100},
	} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[c.n-1-i] = float64(i) // reversed: newDist must sort
		}
		v, pct, beyond := newDist(xs).tail()
		if int(v) != c.idx || beyond != c.n-1-c.idx || pct < c.pct-0.01 || pct > c.pct+0.01 {
			t.Errorf("n=%d: tail = %v at p%.3f with %d beyond, want index %d at p%.2f", c.n, v, pct, beyond, c.idx, c.pct)
		}
		if c.n > minBeyond && beyond != minBeyond {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", c.n, beyond, minBeyond)
		}
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	parent := interval{0, 100}
	children := []interval{
		{30, 60}, {10, 40}, // overlap: together they cover [10, 60)
		{20, 25},   // inside the first pair
		{90, 120},  // sticks out of the parent: only [90, 100) counts
		{-5, 5},    // starts before the parent: only [0, 5) counts
		{200, 300}, // outside the parent entirely
	}
	if got := selfTime(parent, children); got != 100-5-50-10 {
		t.Errorf("self time = %d, want 35", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("self time with no children = %d, want 100", got)
	}

	r := newRecorder()
	root := r.id()
	at := func(ns int) time.Time { return r.epoch.Add(time.Duration(ns)) }
	r.add(0, root, "a", "x", at(10), at(50))
	r.add(0, root, "b", "x", at(40), at(70))
	r.add(root, 0, "parent", "x", at(0), at(100))
	if got := r.selfTimes()[root]; got != 40 {
		t.Errorf("recorder self time = %d, want 40", got)
	}
}

// A stalled sink must not hold back the schedule: the frames due while it
// stalls start late, and their latency from the due time shows the stall.
func TestOpenLoopStallShowsInLaterLatency(t *testing.T) {
	const stall = 150 * time.Millisecond
	due := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond, 300 * time.Millisecond}
	var mu sync.Mutex
	latency := make([]time.Duration, len(due))
	t0, lag := openLoop(due, 1, func(i int, at time.Time) {
		if i == 0 {
			time.Sleep(stall)
		}
		mu.Lock()
		latency[i] = time.Since(at)
		mu.Unlock()
	})
	for _, i := range []int{1, 2} {
		want := stall - due[i]
		if lag[i] < want || latency[i] < want {
			t.Errorf("frame %d due during the stall: lag %v, latency %v, want both >= %v", i, lag[i], latency[i], want)
		}
	}
	if lag[3] > 50*time.Millisecond {
		t.Errorf("frame 3, due after the stall cleared, started %v late", lag[3])
	}
	if elapsed := time.Since(t0); elapsed < due[3] {
		t.Errorf("run ended after %v, before the last due time %v", elapsed, due[3])
	}
}

func TestPayloadOracle(t *testing.T) {
	a, b, c := []byte{1, 2}, []byte{3, 4}, []byte{5, 6}
	sent := [][]byte{a, b}
	for _, tc := range []struct {
		name    string
		decoded [][]byte
		matched int
		wrong   int
	}{
		{"all", [][]byte{b, a}, 2, 0},
		{"one", [][]byte{a}, 1, 0},
		{"user separated twice", [][]byte{a, a}, 1, 0},
		{"wrong payload passing CRC", [][]byte{a, c}, 1, 1},
		{"none", nil, 0, 0},
	} {
		m, w := matchPayloads(sent, tc.decoded)
		if m != tc.matched || len(w) != tc.wrong {
			t.Errorf("%s: matched %d, wrong %d; want %d, %d", tc.name, m, len(w), tc.matched, tc.wrong)
		}
	}
}

func TestStratifyFollowsWeights(t *testing.T) {
	got := stratify(rand.New(rand.NewPCG(1, 2)), []float64{0.5, 0.25, 0.15, 0.10}, 256)
	counts := make([]int, 4)
	for _, k := range got {
		counts[k]++
	}
	if want := []int{128, 64, 38, 26}; counts[0] != want[0] || counts[1] != want[1] || counts[2] != want[2] || counts[3] != want[3] {
		t.Errorf("counts = %v, want %v", counts, want)
	}
}

// The per-layer metrics the program prints must be the ones BENCHMARK.json
// declares, with the same units.
func TestPerLayerMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		PerLayer []layerMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(bj.PerLayer) != len(sp.PerLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, spec.json %d", len(bj.PerLayer), len(sp.PerLayer))
	}
	for i := range bj.PerLayer {
		if bj.PerLayer[i] != sp.PerLayer[i] {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, spec.json %+v", i, bj.PerLayer[i], sp.PerLayer[i])
		}
	}
}
