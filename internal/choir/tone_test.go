package choir

import (
	"math"
	"math/big"
	"math/cmplx"
	"math/rand/v2"
	"testing"
)

// rotatorFreqs covers DC, near-DC, quarter-rate, near-Nyquist in both
// directions, plus seeded random frequencies (cycles per sample).
func rotatorFreqs() []float64 {
	freqs := []float64{0, 1e-9, -1e-9, 0.25, -0.25, 0.4999, -0.4999}
	rng := rand.New(rand.NewPCG(13, 0x707A7))
	for range 4 {
		freqs = append(freqs, rng.Float64()-0.5)
	}
	return freqs
}

// TestRotatorMatchesSincos compares the rotator with a math.Sincos per
// sample (unitTone, whose exact phase reduction TestUnitToneReduction
// checks) over window lengths from 128 up to 4096·pad, starting both on
// and off an anchor boundary.
func TestRotatorMatchesSincos(t *testing.T) {
	const pad, tol = 16, 1e-12
	for _, f := range rotatorFreqs() {
		for n := 128; n <= 4096*pad; n *= 2 {
			for _, start := range []int{0, n / 3} {
				r := newRotator(f, start)
				worst := 0.0
				for i := start; i < start+n; i++ {
					worst = max(worst, cmplx.Abs(r.next()-unitTone(f, i)))
				}
				if worst > tol {
					t.Errorf("f=%g n=%d start=%d: max |rotator - Sincos| = %.3g > %g", f, n, start, worst, tol)
				}
			}
		}
	}
}

// TestUnitToneReduction checks unitTone's FMA phase reduction against
// frac(f·i) computed in 256-bit arithmetic. A plain Sincos(2π·f·i) would
// be off by up to ~1e-11 at i = 65536 from rounding the argument alone.
func TestUnitToneReduction(t *testing.T) {
	rng := rand.New(rand.NewPCG(14, 0x707A7))
	for _, f := range rotatorFreqs() {
		for range 200 {
			i := rng.IntN(1 << 17)
			p := new(big.Float).SetPrec(256).SetFloat64(f)
			p.Mul(p, new(big.Float).SetInt64(int64(i)))
			whole, _ := p.Int(nil)
			frac, _ := p.Sub(p, new(big.Float).SetInt(whole)).Float64()
			s, c := math.Sincos(2 * math.Pi * frac)
			if e := cmplx.Abs(unitTone(f, i) - complex(c, s)); e > 1e-15 {
				t.Errorf("f=%g i=%d: unitTone off by %.3g", f, i, e)
			}
		}
	}
}

var rotatorSink complex128

func TestRotatorZeroAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(10, func() {
		r := newRotator(0.3217, 5)
		for range 4096 {
			rotatorSink += r.next()
		}
	})
	if allocs != 0 {
		t.Fatalf("rotator allocates %.1f times per window, want 0", allocs)
	}
}
