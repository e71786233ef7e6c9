package choir

import (
	"errors"
	"math"
	"testing"

	"choir/internal/lora"
)

// equalResults fails the test unless a and b are bit-identical decode
// results.
func equalResults(t *testing.T, a, b *Result) {
	t.Helper()
	if len(a.Users) != len(b.Users) {
		t.Fatalf("user counts differ: %d vs %d", len(a.Users), len(b.Users))
	}
	for i := range a.Users {
		ua, ub := a.Users[i], b.Users[i]
		if ua.Offset != ub.Offset || ua.Gain != ub.Gain {
			t.Fatalf("user %d: offset/gain differ: (%v,%v) vs (%v,%v)", i, ua.Offset, ua.Gain, ub.Offset, ub.Gain)
		}
		if len(ua.Symbols) != len(ub.Symbols) {
			t.Fatalf("user %d: symbol counts differ", i)
		}
		for s := range ua.Symbols {
			if ua.Symbols[s] != ub.Symbols[s] {
				t.Fatalf("user %d symbol %d: %d vs %d", i, s, ua.Symbols[s], ub.Symbols[s])
			}
		}
		if string(ua.Payload) != string(ub.Payload) {
			t.Fatalf("user %d: payloads differ: %x vs %x", i, ua.Payload, ub.Payload)
		}
		if (ua.Err == nil) != (ub.Err == nil) {
			t.Fatalf("user %d: errors differ: %v vs %v", i, ua.Err, ub.Err)
		}
		if ua.Err != nil && !errors.Is(ua.Err, errors.Unwrap(ua.Err)) && ua.Err.Error() != ub.Err.Error() {
			t.Fatalf("user %d: errors differ: %v vs %v", i, ua.Err, ub.Err)
		}
		if len(ua.WindowOffsets) != len(ub.WindowOffsets) {
			t.Fatalf("user %d: window-offset counts differ", i)
		}
		for w := range ua.WindowOffsets {
			if ua.WindowOffsets[w] != ub.WindowOffsets[w] {
				t.Fatalf("user %d window %d: offsets %v vs %v", i, w, ua.WindowOffsets[w], ub.WindowOffsets[w])
			}
		}
	}
}

// TestDecodeIntoMatchesDecode pins DecodeInto (recycled Result storage)
// against Decode (fresh Result) bit-for-bit, including when the recycled
// Result previously held a differently-shaped decode.
func TestDecodeIntoMatchesDecode(t *testing.T) {
	specA := defaultSpec(3, 21)
	specB := defaultSpec(2, 22)
	sigA := synthesize(t, specA)
	sigB := synthesize(t, specB)

	fresh := MustNew(DefaultConfig(specA.params))
	wantA, errA := fresh.Decode(sigA, len(specA.payloads[0]))
	fresh.Reseed(DefaultConfig(specA.params).Seed)
	wantB, errB := fresh.Decode(sigB, len(specB.payloads[0]))
	if errA != nil || errB != nil {
		t.Fatalf("reference decodes failed: %v / %v", errA, errB)
	}

	d := MustNew(DefaultConfig(specA.params))
	res := &Result{}
	got, err := d.DecodeInto(res, sigA, len(specA.payloads[0]))
	if err != nil {
		t.Fatal(err)
	}
	if got != res {
		t.Fatal("DecodeInto did not return the caller's Result")
	}
	equalResults(t, got, wantA)

	// Reuse the 3-user Result for a 2-user collision: shrinking must not
	// leak stale users or storage into the output.
	d.Reseed(DefaultConfig(specA.params).Seed)
	got, err = d.DecodeInto(res, sigB, len(specB.payloads[0]))
	if err != nil {
		t.Fatal(err)
	}
	equalResults(t, got, wantB)

	// nil Result allocates a fresh one.
	d.Reseed(DefaultConfig(specA.params).Seed)
	got, err = d.DecodeInto(nil, sigA, len(specA.payloads[0]))
	if err != nil {
		t.Fatal(err)
	}
	equalResults(t, got, wantA)
}

// TestDecodeSteadyStateZeroAllocs guards the tentpole property of the decode
// hot path: once the decoder's arena and scratch buffers have warmed up,
// DecodeInto performs zero heap allocations per packet. Runs in the regular
// (and race/short) CI test job so an allocation regression fails the build
// before the bench gate even runs.
func TestDecodeSteadyStateZeroAllocs(t *testing.T) {
	spec := defaultSpec(2, 9)
	spec.gainsDBm = []float64{20, 15}
	sig := synthesize(t, spec)
	d := MustNew(DefaultConfig(spec.params))
	res := &Result{}
	seed := DefaultConfig(spec.params).Seed

	decodeOnce := func() {
		d.Reseed(seed)
		if _, err := d.DecodeInto(res, sig, len(spec.payloads[0])); err != nil {
			t.Fatal(err)
		}
	}
	// Warm-up: the first decode sizes every slab and scratch buffer; the
	// second verifies the high-water marks are stable.
	decodeOnce()
	decodeOnce()
	for _, u := range res.Users {
		if !u.Decoded() {
			t.Fatalf("warm-up decode failed: %v", u.Err)
		}
	}
	allocs := testing.AllocsPerRun(5, decodeOnce)
	if allocs != 0 {
		t.Fatalf("steady-state DecodeInto allocates %.1f times/op, want 0", allocs)
	}
}

// TestArenaSlabSpill pins the slab overflow contract: an undersized slab
// serves requests from the heap without corrupting earlier allocations, and
// the next reset grows the backing store so the spill never recurs.
func TestArenaSlabSpill(t *testing.T) {
	var s slab[int]
	s.reset()
	a := s.take(4) // spills: empty slab
	for i := range a {
		a[i] = i + 1
	}
	b := s.take(4) // spills again
	for i := range b {
		b[i] = -(i + 1)
	}
	for i := range a {
		if a[i] != i+1 {
			t.Fatalf("first allocation corrupted: %v", a)
		}
	}
	if s.spill == 0 {
		t.Fatal("spill not recorded")
	}
	s.reset()
	if len(s.buf) < 8 {
		t.Fatalf("reset did not grow to high-water mark: len=%d", len(s.buf))
	}
	c := s.takeCap(8)
	if cap(c) != 8 || len(c) != 0 {
		t.Fatalf("takeCap(8) = len %d cap %d", len(c), cap(c))
	}
	// Appending past an allocation's cap must not clobber a later one.
	x := s.takeCap(2)
	y := s.take(2)
	y[0], y[1] = 7, 8
	x = append(x, 1, 2, 3)
	if y[0] != 7 || y[1] != 8 {
		t.Fatalf("append overflow clobbered neighbour: %v", y)
	}
	if x[2] != 3 {
		t.Fatalf("overflow append lost data: %v", x)
	}
}

// BenchmarkDecodeSteadyState measures the zero-alloc DecodeInto hot path on
// the same two-user near-far collision as BenchmarkDecodeTwoUserCollision,
// isolating decode compute from Result construction. Pinned by the CI bench
// gate (ns/op regression and allocs/op > 0 both fail).
func BenchmarkDecodeSteadyState(b *testing.B) {
	spec := defaultSpec(2, 9)
	spec.gainsDBm = []float64{20, 15}
	sig := synthesize(b, spec)
	d := MustNew(DefaultConfig(spec.params))
	res := &Result{}
	seed := DefaultConfig(spec.params).Seed
	d.Reseed(seed)
	if _, err := d.DecodeInto(res, sig, len(spec.payloads[0])); err != nil {
		b.Fatal(err)
	}
	ok := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Reseed(seed)
		if _, err := d.DecodeInto(res, sig, len(spec.payloads[0])); err != nil {
			b.Fatal(err)
		}
		ok += len(res.Users)
	}
	if ok == 0 && b.N > 0 && math.IsNaN(float64(ok)) {
		b.Fatal("unreachable; keeps res live")
	}
}

// BenchmarkSegmentFitRefined measures the golden-section two-segment fit —
// FineIters+3 segmentFit calls — on one dechirped preamble window of a
// single-user SF7 and SF8 frame: the decoder's offset-refinement layer on
// its own.
func BenchmarkSegmentFitRefined(b *testing.B) {
	for _, sf := range []lora.SpreadingFactor{lora.SF7, lora.SF8} {
		b.Run(sf.String(), func(b *testing.B) {
			spec := defaultSpec(1, 9)
			spec.params.SF = sf
			sig := synthesize(b, spec)
			d := MustNew(DefaultConfig(spec.params))
			res, err := d.Decode(sig, len(spec.payloads[0]))
			if err != nil || len(res.Users) == 0 {
				b.Fatalf("reference decode failed: %v", err)
			}
			win := append([]complex128(nil), d.dechirpWindow(sig, 0)...)
			f := res.Users[0].Offset
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fitSink, _, _, _ = d.segmentFitRefined(win, f)
			}
		})
	}
}

var fitSink float64
