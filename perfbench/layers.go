package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"time"

	"choir/internal/backend"
	"choir/internal/choir"
	"choir/internal/dsp"
	"choir/internal/exec"
	"choir/internal/gateway"
	"choir/internal/gateway/journal"
	"choir/internal/obs"
	"choir/internal/trace"
)

// traceGateway runs the workload again with obs recording on, replays a
// sample of its frames layer by layer under benchmark-side spans, and fills
// res with the per-layer metrics.
func traceGateway(rep *report, res *result, name string, w gatewayWorkload, corpus, warm []gwFrame, seed uint64, seconds float64, nproc int, scratch string, untraced gwResult) error {
	obs.Reset()
	obs.Enable()
	run, err := runGateway(w, corpus, warm, seed, seconds, 1, nproc, scratch)
	snap := obs.TakeSnapshot()
	obs.Disable()
	if err != nil {
		return err
	}
	s := summarizeGateway(run)
	printGateway(rep, name, "traced", run, s)
	if len(run.problems) > 0 {
		res.Correct = false
		res.Failed += len(run.problems)
	}

	rec := newRecorder()
	var acks []float64
	for i, r := range run.recs {
		ref := fmt.Sprintf("send%d", i)
		due := run.t0.Add(run.due[i])
		end := r.acked
		if oc, ok := run.outcomes[r.id]; ok && r.accepted {
			ref = fmt.Sprintf("frame%d", r.id)
			end = oc.at
		}
		if end.IsZero() {
			continue
		}
		root := rec.id()
		rec.add(0, root, "loadgen.lag", ref, due, r.start)
		rec.add(0, root, "gateway.ack", ref, r.start, r.acked)
		if r.accepted && !r.sent.IsZero() {
			rec.add(0, root, "client.stream", ref, r.acked, r.sent)
		}
		rec.add(root, 0, "frame", ref, due, end)
		acks = append(acks, ms(r.acked.Sub(r.start)))
	}

	rp, err := replay(rec, run, w, scratch, rep, name)
	if err != nil {
		return err
	}
	for id, self := range rec.selfTimes() {
		if self < 0 {
			res.Correct = false
			rep.printf("[%s] CHECK FAILED: span %d has negative self time %d ns", name, id, self)
		}
	}

	us := func(xs []float64) dist { return newDist(scale(xs, 1e-3)) }
	msd := func(xs []float64) dist { return newDist(scale(xs, 1e-6)) }
	m := map[string]metric{}
	put := func(n string, v float64, unit string) { m[n] = metric{v, unit} }
	putTail := func(n string, d dist, unit string) {
		put(n+".p50", d.median(), unit)
		t, _, _ := d.tail()
		put(n+".tail", t, unit)
	}
	putTail("loadgen.lag_ms", untraced.lag, "ms")
	put("trace_overhead_ratio", ratio(s.latency.median(), untraced.latency.median()), "ratio")
	put("trace.read_framed_us", us(rec.byName("trace.read_framed")).median(), "us")
	putTail("gateway.ack_ms", newDist(acks), "ms")
	qw := snap.Histograms["gateway.queue_wait_ns"]
	put("gateway.queue_wait_ms.p50", qw.P50/1e6, "ms")
	put("gateway.queue_wait_ms.tail", histTail(qw)/1e6, "ms")
	for _, c := range []string{"shed.rejected", "shed.dropped_oldest", "shed.drained", "admission.deferred", "admission.limit", "conn.shed", "retries"} {
		put("gateway."+c, float64(snap.Counters["gateway."+c]), "count")
	}
	for _, b := range w.Gateway.Ladder {
		att := float64(snap.Counters["gateway.stage."+b+".attempts"])
		put("gateway.rung."+b+".attempts", att, "count")
		put("gateway.rung."+b+".success_ratio", ratio(float64(snap.Counters["gateway.stage."+b+".success"]), att), "ratio")
		put("gateway.breaker."+b+".skips", float64(snap.Counters["gateway.breaker."+b+".skips"]), "count")
		putTail("backend.decode_ms."+b, msd(rec.byName("backend.decode."+b)), "ms")
	}
	putTail("journal.append_us", us(rec.byName("journal.append")), "us")
	putTail("journal.complete_us", us(rec.byName("journal.complete")), "us")
	put("journal.bytes_per_frame", rp.journalBytes, "bytes")
	put("backend.pool_get_us", us(rec.byName("backend.pool_get")).median(), "us")
	calls := float64(snap.Counters["choir.decode.calls"])
	for _, st := range []string{"dechirp", "fft", "peak_search", "residual_min", "preamble", "sic", "data"} {
		put("choir.stage."+st+"_incl_ms", ratio(float64(snap.Histograms["choir.stage."+st+"_ns"].Sum), calls)/1e6, "ms")
	}
	put("choir.sic.phases_per_frame", ratio(float64(snap.Counters["choir.sic.phases"]), calls), "count")
	put("choir.users.decoded_ratio", ratio(float64(snap.Counters["choir.users.decoded"]), float64(snap.Counters["choir.users.detected"])), "ratio")
	for _, sf := range w.SFs {
		k := dspKernels(sf, seed)
		put(fmt.Sprintf("dsp.transform_pruned_us.sf%d", sf), k.pruned, "us")
		put(fmt.Sprintf("dsp.spectrum_into_us.sf%d", sf), k.spectrum, "us")
		rep.printf("[%s] dsp SF%d: N=%d (2^SF x pad 16): %.0f flop (5 N log2 N) per transform, %d bytes in + %d bytes out; TransformPruned %.2f us (%.2f Gflop/s), SpectrumInto %.2f us (+%d bytes magnitudes)",
			name, sf, k.n, k.flops, k.inBytes, k.outBytes, k.pruned, k.flops/k.pruned/1e3, k.spectrum, 8*k.n)
	}

	// The median frame's latency, split into the replayed layers' medians;
	// what they do not cover is queueing, handoff and retry backoff.
	lat := s.latency.median()
	parts := []struct {
		name string
		v    float64
	}{
		{"parse", ms(time.Duration(newDist(rec.byName("trace.read_framed")).median()))},
		{"journal append", ms(time.Duration(newDist(rec.byName("journal.append")).median()))},
		{"rung decodes", newDist(rp.decodeMS).median()},
		{"journal complete", ms(time.Duration(newDist(rec.byName("journal.complete")).median()))},
		{"replay self", newDist(rp.selfMS).median()},
	}
	rest := lat
	line := fmt.Sprintf("[%s traced] median frame latency %.2f ms =", name, lat)
	for _, p := range parts {
		rest -= p.v
		line += fmt.Sprintf(" %s %.3f +", p.name, p.v)
	}
	rep.printf("%s unattributed (queueing, handoff, backoff) %.3f ms", line, rest)
	put("gateway.unattributed_ms", rest, "ms")
	put("replay.self_ms", newDist(rp.selfMS).median(), "ms")
	res.Metrics = m
	return rec.write(spansPath(name, seed))
}

func scale(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

// histTail is the obs histogram's highest quantile with at least minBeyond
// samples above it.
func histTail(h obs.HistSnapshot) float64 {
	switch {
	case h.Count >= 100*minBeyond:
		return h.P99
	case h.Count >= 10*minBeyond:
		return h.P90
	default:
		return h.P50
	}
}

// attemptedRungs reconstructs the ladder rungs an outcome ran, in order:
// the Attempts rungs ending at the decoding rung, or for a failure the
// first Attempts rungs with the last repeating. A rung an open breaker
// skipped leaves no trace in the Outcome, so under a tripped breaker the
// replay can pick a neighbouring rung.
func attemptedRungs(o gateway.Outcome, rungs int) []int {
	var out []int
	for a := 0; a < o.Attempts; a++ {
		switch o.Kind {
		case gateway.OutcomeDecoded:
			out = append(out, max(0, int(o.Stage)-(o.Attempts-1-a)))
		case gateway.OutcomeFailed:
			out = append(out, min(a, rungs-1))
		}
	}
	return out
}

type replayResult struct {
	decodeMS     []float64 // per frame, summed over its rungs
	selfMS       []float64 // per frame, the replay span's own time
	journalBytes float64
}

// replay pushes a sample of the run's accepted frames through each layer's
// public calls in pipeline order — framed parse, journal append, one decode
// per rung the real outcome attempted (with the gateway's own seeds), and
// journal completion — under one parent span per frame.
func replay(rec *recorder, run *gwRun, w gatewayWorkload, scratch string, rep *report, name string) (replayResult, error) {
	var rr replayResult
	dir, err := os.MkdirTemp(scratch, "replay-")
	if err != nil {
		return rr, err
	}
	jw, _, err := journal.Open(dir, journal.Options{Fsync: w.Gateway.Fsync})
	if err != nil {
		return rr, err
	}
	defer jw.Close() // error paths only; Close is idempotent and checked below
	pools := map[string]*backend.Pool{}
	poolFor := func(f *gwFrame, b string) (*backend.Pool, error) {
		key := fmt.Sprintf("%d/%s", f.params.SF, b)
		if p, ok := pools[key]; ok {
			return p, nil
		}
		p, err := backend.NewPool(b, f.params)
		if err != nil {
			return nil, err
		}
		pools[key] = p
		return p, nil
	}
	var picks []int
	for i, r := range run.recs {
		if _, ok := run.outcomes[r.id]; ok && r.accepted {
			picks = append(picks, i)
		}
	}
	if n := w.ReplayFrames; len(picks) > n {
		step := float64(len(picks)) / float64(n)
		sub := make([]int, n)
		for k := range sub {
			sub[k] = picks[int(float64(k)*step)]
		}
		picks = sub
	}
	ctx := context.Background()
	res := &choir.Result{}
	reproduced, decodedFrames := 0, 0
	for _, i := range picks {
		r, f := run.recs[i], run.frame(i)
		oc := run.outcomes[r.id].o
		ref := fmt.Sprintf("frame%d", r.id)
		parent := rec.id()
		start := time.Now()
		t := time.Now()
		h, samples, err := trace.ReadFramed(bytes.NewReader(f.wire))
		if err != nil {
			return rr, fmt.Errorf("replaying frame %d: %w", r.id, err)
		}
		rec.add(0, parent, "trace.read_framed", ref, t, time.Now())
		t = time.Now()
		if err := jw.Append(r.id, h, samples); err != nil {
			return rr, err
		}
		rec.add(0, parent, "journal.append", ref, t, time.Now())
		var decode time.Duration
		var last [][]byte
		for _, stage := range attemptedRungs(oc, len(w.Gateway.Ladder)) {
			bname := w.Gateway.Ladder[stage]
			pool, err := poolFor(f, bname)
			if err != nil {
				return rr, err
			}
			t = time.Now()
			b := pool.Get(exec.DeriveSeed(w.Gateway.Seed, r.id, uint64(stage)))
			rec.add(0, parent, "backend.pool_get", ref, t, time.Now())
			t = time.Now()
			derr := b.DecodeCtxInto(ctx, res, samples, h.PayloadLen)
			d := time.Since(t)
			rec.add(0, parent, "backend.decode."+bname, ref, t, t.Add(d))
			pool.Put(b)
			decode += d
			last = nil
			if derr == nil {
				last = res.DecodedPayloads()
			}
		}
		t = time.Now()
		if err := jw.Complete(r.id); err != nil {
			return rr, err
		}
		end := time.Now()
		rec.add(0, parent, "journal.complete", ref, t, end)
		rec.add(parent, 0, "replay", ref, start, end)
		rr.decodeMS = append(rr.decodeMS, ms(decode))
		if oc.Kind == gateway.OutcomeDecoded {
			decodedFrames++
			if slices.EqualFunc(last, oc.Payloads, bytes.Equal) {
				reproduced++
			}
		}
	}
	selfs := rec.selfTimes()
	for _, s := range rec.spans {
		if s.Name == "replay" {
			rr.selfMS = append(rr.selfMS, float64(selfs[s.ID])/1e6)
		}
	}
	var total int64
	entries, _ := filepath.Glob(filepath.Join(dir, "*"))
	for _, e := range entries {
		if st, err := os.Stat(e); err == nil {
			total += st.Size()
		}
	}
	if err := jw.Close(); err != nil {
		return rr, err
	}
	rr.journalBytes = ratio(float64(total), float64(len(picks)))
	rep.printf("[%s traced] replayed %d frames layer by layer; the replay reproduced %d of %d decoded outcomes' payloads", name, len(picks), reproduced, decodedFrames)
	return rr, nil
}

type kernelTimes struct {
	n                 int
	flops             float64
	inBytes, outBytes int
	pruned, spectrum  float64 // median µs per call
}

// dspKernels times the FFT kernels the decoder runs per symbol at one PHY
// shape: a 2^SF-sample dechirped symbol zero-padded 16x.
func dspKernels(sf int, seed uint64) kernelTimes {
	const pad, calls = 16, 400
	m := 1 << sf
	n := m * pad
	rng := rand.New(rand.NewPCG(seed, uint64(sf)))
	src := make([]complex128, m)
	for i := range src {
		src[i] = cmplx.Rect(1, 2*math.Pi*rng.Float64())
	}
	f := dsp.NewFFT(n)
	dst, spec := make([]complex128, n), make([]complex128, n)
	mags := make([]float64, n)
	time1 := func(fn func()) float64 {
		xs := make([]float64, calls)
		for i := range xs {
			t := time.Now()
			fn()
			xs[i] = float64(time.Since(t).Nanoseconds()) / 1e3
		}
		return newDist(xs).median()
	}
	return kernelTimes{
		n: n, flops: 5 * float64(n) * math.Log2(float64(n)), inBytes: 16 * m, outBytes: 16 * n,
		pruned:   time1(func() { dst = f.TransformPruned(dst, src) }),
		spectrum: time1(func() { mags = f.SpectrumInto(mags, spec, src) }),
	}
}
