package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// benchGateway runs one gateway workload: the untraced pass always, and the
// traced pass with its layer replays when traced is set.
func benchGateway(rep *report, sp *spec, name string, w gatewayWorkload, seed uint64, seconds float64, traced bool) (*result, error) {
	nproc := runtime.NumCPU()
	// The gateway runs nproc decode workers, as choir-gatewayd does by
	// default. The load generator shares the machine with them, so it gets
	// one more P: with only nproc, a due send waits behind busy decode
	// goroutines for up to a whole preemption slice, and the generator, not
	// the gateway, sets the latency tail.
	runtime.GOMAXPROCS(nproc + 1)
	rep.printf("gateway: %d decode workers, GOMAXPROCS %d", nproc, runtime.GOMAXPROCS(0))
	t := time.Now()
	corpus, err := buildCorpus(w, seed)
	if err != nil {
		return nil, err
	}
	rep.printf("corpus: %d distinct frames generated in %.2f s", len(corpus), time.Since(t).Seconds())
	warm, err := warmupFrames(w, seed)
	if err != nil {
		return nil, err
	}
	scratch, err := scratchDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	run, err := runGateway(w, corpus, warm, seed, seconds, sp.SetupRepeats, nproc, scratch)
	if err != nil {
		return nil, err
	}
	if err := obsQuiet(); err != nil {
		run.problems = append(run.problems, err.Error())
	} else {
		rep.printf("obs recording was off for the untraced pass: every counter and histogram reads zero")
	}
	s := summarizeGateway(run)
	setup := newDist(run.setup).median()
	printGateway(rep, name, "untraced", run, s)
	lagTail, lagPct, _ := s.lag.tail()
	if lagTail > w.LagTailBoundMS {
		// An invalid run prints no result: the generator, not the gateway,
		// set the latency it would report.
		return nil, fmt.Errorf("run invalid: generator lag p%.1f %.1f ms exceeds the %g ms validity bound", lagPct, lagTail, w.LagTailBoundMS)
	}
	res := &result{
		Correct:   len(run.problems) == 0,
		Attempted: s.sent,
		Failed:    s.connErrs + s.wrongFrames + len(run.problems),
	}
	if !traced {
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		res.Metrics = map[string]metric{
			"setup_s":          {setup, "s"},
			"peak_rss_mb":      {rss, "MB"},
			"throughput_per_s": {s.goodput(), "1/s"},
			"success_ratio":    {ratio(float64(s.usersRecovered), float64(s.usersAccepted)), "ratio"},
		}
		rep.printf("peak_rss_mb %.1f MB", rss)
		return res, nil
	}
	return res, traceGateway(rep, res, name, w, corpus, warm, seed, seconds, nproc, scratch, s)
}

// printGateway prints every gateway end-to-end metric under its own name.
func printGateway(rep *report, name, pass string, run *gwRun, s gwResult) {
	d := newDist(run.setup)
	rep.printf("[%s %s] setup_s %.4f s (median of %d: %s)", name, pass, d.median(), d.n(), fmtList(run.setup, "%.4f"))
	tail, pct, beyond := s.latency.tail()
	rep.printf("[%s %s] frame_latency_p50_ms %.2f ms (n=%d)", name, pass, s.latency.median(), s.latency.n())
	rep.printf("[%s %s] frame_latency_tail_ms %.2f ms (p%.1f, %d frames beyond, n=%d)", name, pass, tail, pct, beyond, s.latency.n())
	rep.printf("[%s %s] goodput_fps %.2f 1/s (%d decoded over %.2f s)", name, pass, s.goodput(), s.decoded, s.window.Seconds())
	rep.printf("[%s %s] rx1_met_ratio %.4f (%d of %d sent decoded within %v)", name, pass, ratio(float64(s.rx1Met), float64(s.sent)), s.rx1Met, s.sent, rx1)
	rep.printf("[%s %s] failed_ratio %.4f (failed %d, shed %d, rejected %d, conn errors %d, wrong payload %d, of %d sent)",
		name, pass, s.failedRatio(), s.failed, s.shed, s.rejected, s.connErrs, s.wrongFrames, s.sent)
	rep.printf("[%s %s] users_recovered_ratio %.4f (%d of %d users sent; %.4f of the %d users in accepted frames)", name, pass,
		ratio(float64(s.usersRecovered), float64(s.usersSent)), s.usersRecovered, s.usersSent,
		ratio(float64(s.usersRecovered), float64(s.usersAccepted)), s.usersAccepted)
	lt, lp, lb := s.lag.tail()
	rep.printf("[%s %s] loadgen.lag_ms p50 %.3f, p%.1f %.3f (%d beyond)", name, pass, s.lag.median(), lp, lt, lb)
	for _, w := range s.wrong {
		rep.printf("[%s %s] WRONG PAYLOAD PASSED CRC: %s", name, pass, w)
	}
	for _, p := range run.problems {
		rep.printf("[%s %s] ACCOUNTING: %s", name, pass, p)
	}
	if len(run.problems) == 0 {
		rep.printf("[%s %s] accounting ok: %d accepted, stats %+v", name, pass, len(run.outcomes), run.stats)
	}
}

func fmtList(xs []float64, f string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(f, x)
	}
	return strings.Join(parts, " ")
}
