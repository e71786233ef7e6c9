package engine

import (
	"math"
	"testing"

	"choir/internal/mac"
)

// TestFirstArrivalSkip pins initArrivals' beyond-horizon shortcut: a
// first-arrival uniform above uSkip is pruned without the log, and the
// pruning decision must equal the exact gap's "gapOf(u) >= Slots" for
// every u, with the exact gap returned whenever it lands inside the
// horizon. The grid is dense in ulps around the cut and spans the 1e-9
// band on both sides; the config set covers a one-slot horizon, a tiny
// arrival probability, and a cut so close to 1 that nothing is skipped.
func TestFirstArrivalSkip(t *testing.T) {
	cases := []struct {
		name     string
		slots    int
		p        float64
		wantSkip bool
	}{
		{"city-sparse", 300, 2e-4, true},
		{"one-slot", 1, 0.3, true},
		{"tiny-p", 2000, 1e-12, true},
		{"cut-near-1", 100, 0.5, false},
	}
	for _, tc := range cases {
		c := newCore(Config{
			Scheme:         mac.SchemeChoir,
			Nodes:          20_000,
			Slots:          tc.slots,
			ArrivalPerSlot: tc.p,
			Receiver:       mac.AlohaReceiver{},
			Seed:           3,
		})
		if got := c.uSkip < 1; got != tc.wantSkip {
			t.Fatalf("%s: uSkip = %v, skip possible = %v, want %v", tc.name, c.uSkip, got, tc.wantSkip)
		}
		check := func(u float64) bool {
			got, want := c.firstGapOf(u), c.gapOf(u)
			if want < c.slots && got != want || want >= c.slots && got < c.slots {
				t.Fatalf("%s: u=%.17g: firstGapOf = %d, gapOf = %d, Slots %d", tc.name, u, got, want, c.slots)
			}
			return u > c.uSkip
		}
		cut := -math.Expm1(float64(tc.slots) * c.logq)
		skipped := 0
		for _, center := range []float64{cut, c.uSkip} {
			lo, hi := center, center
			for k := 0; k < 2000; k++ {
				lo, hi = math.Nextafter(lo, 0), math.Nextafter(hi, 1)
				check(lo)
				if check(hi) {
					skipped++
				}
			}
		}
		for k := -4000; k <= 4000; k++ {
			if u := cut * (1 + float64(k)*1e-12); u < 1 && check(u) {
				skipped++
			}
		}
		for k := 0; k < 4096; k++ {
			if check(float64(k) / 4096) {
				skipped++
			}
		}
		if got := skipped > 0; got != tc.wantSkip {
			t.Fatalf("%s: %d grid points skipped, want skipping = %v", tc.name, skipped, tc.wantSkip)
		}

		// The same decision through initArrivals, node by node.
		for i := int32(0); i < int32(len(c.nodes)); i++ {
			c.initArrivals(i)
			got, want := c.nodes[i].nextArrival, c.arrivalGap(i, 0)
			if want < c.slots && got != want || want >= c.slots && got < c.slots {
				t.Fatalf("%s: node %d: first arrival %d, arrivalGap %d, Slots %d", tc.name, i, got, want, c.slots)
			}
		}
	}
}
