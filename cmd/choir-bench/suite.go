package main

import (
	"context"
	"math/rand/v2"
	"runtime"
	"testing"
	"time"

	"choir"
	"choir/internal/backend"
	ichoir "choir/internal/choir"
	"choir/internal/dsp"
	"choir/internal/gateway"
	"choir/internal/lora"
	"choir/internal/obs"
	"choir/internal/sim"
	"choir/internal/trace"
)

// benchmark is one named, seeded measurement in the suite.
type benchmark struct {
	Name      string
	PinNs     bool // gate on ns/op regression
	PinAllocs bool // gate on any allocs/op increase (zero-alloc kernels)
	Fn        func(b *testing.B)
}

func (bm benchmark) run() Result {
	r := testing.Benchmark(bm.Fn)
	return Result{
		Name:        bm.Name,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		// Custom metrics reported via b.ReportMetric; zero when the
		// benchmark doesn't emit them.
		FramesPerSec: r.Extra["frames/sec"],
		P99LatencyNs: r.Extra["p99-ns"],
		EventsPerSec: r.Extra["events/sec"],
		PeakRSSBytes: r.Extra["peak-rss-bytes"],
		PinNs:        bm.PinNs,
		PinAllocs:    bm.PinAllocs,
	}
}

// suite returns the pinned benchmark set. Every benchmark uses fixed seeds
// and fixed shapes so runs are comparable across commits; the decode
// benchmarks mirror the `go test -bench` definitions in bench_test.go.
func suite() []benchmark {
	return []benchmark{
		{Name: "BenchmarkFFTFullPadded", PinNs: true, PinAllocs: true, Fn: benchFFTFullPadded},
		{Name: "BenchmarkFFTPruned", PinNs: true, PinAllocs: true, Fn: benchFFTPruned},
		{Name: "BenchmarkSpectrumInto", PinNs: true, PinAllocs: true, Fn: benchSpectrumInto},
		{Name: "BenchmarkNoiseFloor", PinNs: true, PinAllocs: true, Fn: benchNoiseFloor},
		{Name: "BenchmarkDecodeSteadyState", PinNs: true, PinAllocs: true, Fn: benchDecodeSteadyState},
		{Name: "BenchmarkBackendDispatch", PinNs: true, PinAllocs: true, Fn: benchBackendDispatch},
		{Name: "BenchmarkDecodeTwoUserCollision", PinNs: true, Fn: benchDecodeTwoUser},
		{Name: "BenchmarkDecodeEightUserCollision", PinNs: true, Fn: benchDecodeEightUser},
		{Name: "BenchmarkGatewaySerial", PinNs: true, Fn: benchGatewayFrames},
		{Name: "BenchmarkHeadline", PinNs: true, Fn: benchHeadline},
		{Name: "BenchmarkCityScale", PinNs: true, Fn: benchCityScale},
		{Name: "BenchmarkCityScaleInterfere", PinNs: true, Fn: benchCityScaleInterfere},
	}
}

// benchGatewayFrames is the sustained-throughput measurement behind
// BenchmarkGatewaySerial: push b.N identical two-user collision frames
// through a full gateway (queue, workers, ladder) and drain it, with metrics
// recording on so the gateway.frame_latency_ns histogram captures
// enqueue-to-outcome latency. Reports frames/sec and the p99 latency
// alongside ns/op so -compare can gate sustained throughput, not just
// per-op cost.
func benchGatewayFrames(b *testing.B) {
	p := lora.DefaultParams()
	p.SF = lora.SF7
	sc := sim.Scenario{Params: p, PayloadLen: 4, SNRsDB: []float64{15, 12}, Seed: 3}
	sig, _ := sc.Synthesize()
	h := trace.Header{Params: p, PayloadLen: 4}

	obs.Reset()
	obs.Enable()
	defer obs.Disable()
	g, err := gateway.New(gateway.Config{
		Queue: 256, Seed: 11, BackoffBase: time.Microsecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	decoded := make(chan int, 1)
	go func() {
		n := 0
		for o := range g.Outcomes() {
			if o.Kind == gateway.OutcomeDecoded {
				n++
			}
		}
		decoded <- n
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Submit(context.Background(), "bench", h, sig); err != nil {
			b.Fatal(err)
		}
	}
	if err := g.Drain(context.Background()); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if n := <-decoded; n != b.N {
		b.Fatalf("decoded %d of %d frames", n, b.N)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "frames/sec")
	if hist := obs.NewTimer("gateway.frame_latency_ns").Hist(); hist.Count() > 0 {
		b.ReportMetric(hist.Quantile(0.99), "p99-ns")
	}
}

// benchSignal synthesizes the fixed two-user near-far collision shared by
// the decode benchmarks (same scenario as bench_test.go's
// BenchmarkDecodeTwoUserCollision).
func benchSignal(b *testing.B, snrs []float64, seed uint64) ([]complex128, lora.Params) {
	b.Helper()
	sc := sim.Scenario{Params: lora.DefaultParams(), PayloadLen: 8, SNRsDB: snrs, Seed: seed}
	sig, _ := sc.Synthesize()
	return sig, sc.Params
}

// dechirpedWindow builds a deterministic SF9-shaped dechirped window plus
// noise for the FFT kernel benchmarks: pruned vs full transforms must be
// compared on identical inputs.
func dechirpedWindow(n int) []complex128 {
	rng := rand.New(rand.NewPCG(42, 0xBE7C4))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func benchFFTFullPadded(b *testing.B) {
	const n, padN = 512, 8192
	x := dechirpedWindow(n)
	f := dsp.NewFFT(padN)
	padded := make([]complex128, padN)
	dst := make([]complex128, padN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range padded {
			padded[j] = 0
		}
		copy(padded, x)
		f.Transform(dst, padded)
	}
}

func benchFFTPruned(b *testing.B) {
	const n, padN = 512, 8192
	x := dechirpedWindow(n)
	f := dsp.NewFFT(padN)
	dst := make([]complex128, padN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.TransformPruned(dst, x)
	}
}

func benchSpectrumInto(b *testing.B) {
	const n, padN = 512, 8192
	x := dechirpedWindow(n)
	f := dsp.NewFFT(padN)
	dst := make([]float64, padN)
	spec := make([]complex128, padN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.SpectrumInto(dst, spec, x)
	}
}

func benchNoiseFloor(b *testing.B) {
	const padN = 8192
	rng := rand.New(rand.NewPCG(7, 0xF100D))
	mags := make([]float64, padN)
	for i := range mags {
		mags[i] = rng.Float64()
	}
	scratch := make([]float64, padN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dsp.NoiseFloorScratch(mags, scratch)
	}
}

func benchDecodeSteadyState(b *testing.B) {
	sig, p := benchSignal(b, []float64{20, 15}, 9)
	dec := ichoir.MustNew(ichoir.DefaultConfig(p))
	res := &ichoir.Result{}
	if _, err := dec.DecodeInto(res, sig, 8); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec.Reseed(ichoir.DefaultConfig(p).Seed)
		if _, err := dec.DecodeInto(res, sig, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// benchBackendDispatch is benchDecodeSteadyState driven through the
// collision-resolution Backend interface instead of the concrete decoder:
// same signal, same seeds, plus the registry dispatch, interface call, and
// context polling. Pinned at zero allocs/op — the pluggable-backend layer
// must not put the steady-state decode path back on the heap.
func benchBackendDispatch(b *testing.B) {
	sig, p := benchSignal(b, []float64{20, 15}, 9)
	be := backend.MustNew("choir", p)
	res := &ichoir.Result{}
	ctx := context.Background()
	if err := be.DecodeCtxInto(ctx, res, sig, 8); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		be.Reseed(ichoir.DefaultConfig(p).Seed)
		if err := be.DecodeCtxInto(ctx, res, sig, 8); err != nil {
			b.Fatal(err)
		}
	}
}

func benchDecodeTwoUser(b *testing.B) {
	sig, p := benchSignal(b, []float64{20, 15}, 9)
	dec := ichoir.MustNew(ichoir.DefaultConfig(p))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dec.Decode(sig, 8); err != nil {
			b.Fatal(err)
		}
	}
}

func benchDecodeEightUser(b *testing.B) {
	snrs := make([]float64, 8)
	for i := range snrs {
		snrs[i] = 15 + float64(i)
	}
	sig, p := benchSignal(b, snrs, 10)
	dec := ichoir.MustNew(ichoir.DefaultConfig(p))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dec.Decode(sig, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCityScale drives the event-driven city engine on a fixed 100k-node
// single-gateway sparse-traffic city (the cmd twin of the engine package's
// BenchmarkCityScale). Beyond ns/op it reports sustained events/sec — the
// engine's real currency, since an event is the unit of useful work — and
// the post-run heap footprint, so -compare catches both throughput
// regressions and city-state bloat.
func benchCityScale(b *testing.B) {
	cfg := choir.CityConfig{
		Scheme:         choir.SchemeChoir,
		Driver:         choir.CityDriverEvent,
		Nodes:          100_000,
		Gateways:       1,
		Slots:          2000,
		ArrivalPerSlot: 2e-5,
		SideM:          1200,
		PayloadLen:     12,
		Receiver:       choir.CityModelReceiver{Success: choir.AnalyticChoirTable(30, 0.95, 14), MaxConcurrent: 30},
		Seed:           2026,
		Shards:         8,
	}
	b.ReportAllocs()
	b.ResetTimer()
	var events int64
	for i := 0; i < b.N; i++ {
		m, err := choir.RunCity(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		events += m.Events
	}
	b.StopTimer()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
	b.ReportMetric(float64(ms.HeapInuse), "peak-rss-bytes")
}

// benchCityScaleInterfere is benchCityScale with the interference suite
// switched on: one co-channel foreign network and the capture-effect
// receiver wrapping the same Choir decode table. It pins the cost of the
// new hot path — per-contended-slot foreign Poisson draws plus the
// capture/orthogonality math in every group's probability — on top of the
// baseline engine, in sustained events/sec.
func benchCityScaleInterfere(b *testing.B) {
	cfg := choir.CityConfig{
		Scheme:         choir.SchemeChoir,
		Driver:         choir.CityDriverEvent,
		Nodes:          100_000,
		Gateways:       1,
		Slots:          2000,
		ArrivalPerSlot: 2e-5,
		SideM:          1200,
		PayloadLen:     12,
		Receiver: choir.NewCaptureModel(
			choir.CityModelReceiver{Success: choir.AnalyticChoirTable(30, 0.95, 14), MaxConcurrent: 30}, 6),
		Foreign: []choir.CityForeignConfig{{Nodes: 20_000, ArrivalPerSlot: 2e-5}},
		Seed:    2026,
		Shards:  8,
	}
	b.ReportAllocs()
	b.ResetTimer()
	var events int64
	for i := 0; i < b.N; i++ {
		m, err := choir.RunCity(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		events += m.Events
	}
	b.StopTimer()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
	b.ReportMetric(float64(ms.HeapInuse), "peak-rss-bytes")
}

func benchHeadline(b *testing.B) {
	cfg := choir.DefaultFig8()
	cfg.Slots = 1500
	cfg.Calibration.Trials = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := choir.ComputeHeadline(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
