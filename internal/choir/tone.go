package choir

import "math"

// rotatorSpan is how many consecutive samples a rotator derives by complex
// multiplication from one exact anchor.
const rotatorSpan = 64

// rotator generates the unit tone e^{j2πf·i} (f in cycles per sample) for
// consecutive sample indices i. Each sample costs one complex multiply by
// e^{j2πf}; every rotatorSpan samples the phase is re-anchored with an exact
// math.Sincos, so rounding error cannot build up across a window: it stays
// near 2e-14, and TestRotatorMatchesSincos bounds it at 1e-12. Every
// per-sample tone loop of the decoder draws its tone from a rotator.
type rotator struct {
	f    float64
	i    int // sample index of the next anchor
	left int // samples before the next anchor
	cur  complex128
	step complex128
}

// newRotator returns a rotator whose first next() is e^{j2πf·start}.
func newRotator(f float64, start int) rotator {
	s, c := math.Sincos(2 * math.Pi * f)
	return rotator{f: f, i: start, step: complex(c, s)}
}

// next returns the tone at the current sample and advances one sample. It
// is kept within the inlining budget; anchor is the out-of-line slow path.
func (r *rotator) next() (v complex128) {
	if r.left == 0 {
		r.anchor()
	}
	r.left--
	v, r.cur = r.cur, r.cur*r.step
	return
}

//go:noinline
func (r *rotator) anchor() {
	r.cur = unitTone(r.f, r.i)
	r.i += rotatorSpan
	r.left = rotatorSpan
}

// unitTone returns e^{j2πf·i} with the phase reduced exactly: f·i is split
// into its rounded product and the product's rounding error (FMA), so the
// whole-cycle part drops out without losing fractional bits and Sincos only
// ever sees an argument within ±π.
func unitTone(f float64, i int) complex128 {
	x := float64(i)
	hi := f * x
	lo := math.FMA(f, x, -hi)
	s, c := math.Sincos(2 * math.Pi * ((hi - math.Round(hi)) + lo))
	return complex(c, s)
}
