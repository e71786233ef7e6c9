package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"time"

	"choir/internal/mac"
	"choir/internal/obs"
	"choir/internal/sim"
	"choir/internal/sim/engine"
	"choir/internal/sim/interfere"
)

// cityConfig is the workload's engine config; base is the slot-level Choir
// receiver model, which the capture model wraps when the workload sets a
// capture margin.
func cityConfig(w cityWorkload, seed uint64, workers int) (cfg engine.Config, base mac.ModelReceiver) {
	t := w.Table
	base = mac.ModelReceiver{
		Success:       sim.AnalyticChoirTable(t.MaxUsers, t.BaseSuccess, t.ResolvableOffsets),
		MaxConcurrent: t.MaxConcurrent,
	}
	var rx mac.SlotSuccess = base
	if w.CaptureMarginDB > 0 {
		rx = interfere.New(base, w.CaptureMarginDB)
	}
	cfg = engine.Config{
		Scheme:         mac.SchemeChoir,
		Driver:         engine.DriverEvent,
		Nodes:          w.Nodes,
		Gateways:       w.Gateways,
		Slots:          w.Slots,
		ArrivalPerSlot: w.ArrivalPerSlot,
		Receiver:       rx,
		Seed:           seed,
		Shards:         w.Shards,
		Workers:        workers,
	}
	for _, f := range w.Foreign {
		cfg.Foreign = append(cfg.Foreign, engine.ForeignConfig{Nodes: f.Nodes, ArrivalPerSlot: f.ArrivalPerSlot})
	}
	return cfg, base
}

// timedRun is one engine.Run from config to Metrics.
func timedRun(cfg engine.Config) (*engine.Metrics, time.Duration, error) {
	t := time.Now()
	m, err := engine.Run(context.Background(), cfg)
	return m, time.Since(t), err
}

func digest(m *engine.Metrics) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%+v", *m))))[:16]
}

// cityPass is the untraced measurement: repeated set-up runs, then full
// runs until the duration is spent (at least minCityRuns), all of which
// must produce identical Metrics.
type cityPass struct {
	setup []float64 // seconds
	runs  []float64 // seconds
	m     *engine.Metrics
}

const minCityRuns = 3

func runCity(cfg engine.Config, seconds float64, repeats int, problems *[]string) (*cityPass, error) {
	p := &cityPass{}
	one := cfg
	one.Slots = 1
	for k := 0; k < repeats; k++ {
		_, d, err := timedRun(one)
		if err != nil {
			return nil, err
		}
		p.setup = append(p.setup, d.Seconds())
	}
	start := time.Now()
	for len(p.runs) < minCityRuns || time.Since(start).Seconds() < seconds {
		m, d, err := timedRun(cfg)
		if err != nil {
			return nil, err
		}
		p.runs = append(p.runs, d.Seconds())
		if p.m == nil {
			p.m = m
		} else if !reflect.DeepEqual(*p.m, *m) {
			*problems = append(*problems, fmt.Sprintf("run %d Metrics %s differ from run 0's %s", len(p.runs)-1, digest(m), digest(p.m)))
		}
	}
	return p, nil
}

func benchCity(rep *report, sp *spec, name string, w cityWorkload, seed uint64, seconds float64, traced bool) (*result, error) {
	nproc := runtime.NumCPU()
	cfg, base := cityConfig(w, seed, nproc)
	var problems []string
	p, err := runCity(cfg, seconds, sp.SetupRepeats, &problems)
	if err != nil {
		return nil, err
	}
	if err := obsQuiet(); err != nil {
		problems = append(problems, err.Error())
	} else {
		rep.printf("obs recording was off for the untraced pass: every counter and histogram reads zero")
	}
	setup, runs := newDist(p.setup), newDist(p.runs)
	tail, pct, beyond := runs.tail()
	m := p.m
	rep.printf("[%s untraced] setup_s %.4f s (engine.Run with Slots 1, median of %d: %s)", name, setup.median(), setup.n(), fmtList(p.setup, "%.4f"))
	rep.printf("[%s untraced] city_run_s %.4f s (median of %d runs; p%.1f %.4f s with %d beyond)", name, runs.median(), runs.n(), pct, tail, beyond)
	rep.printf("[%s untraced] delivery_ratio %.6f (%d delivered of %d arrivals)", name, m.DeliveryRatio(), m.Delivered, m.Arrivals)
	rep.printf("[%s untraced] Metrics digest %s (events %d, transmissions %d, active slots %d), identical across %d runs: %v",
		name, digest(m), m.Events, m.Transmissions, m.ActiveSlots, runs.n(), len(problems) == 0)
	res := &result{Attempted: runs.n()}
	if !traced {
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		rep.printf("peak_rss_mb %.1f MB", rss)
		res.Correct = len(problems) == 0
		res.Failed = len(problems)
		res.Metrics = map[string]metric{
			"setup_s":          {setup.median(), "s"},
			"peak_rss_mb":      {rss, "MB"},
			"throughput_per_s": {float64(m.Events) / runs.median(), "1/s"},
			"success_ratio":    {m.DeliveryRatio(), "ratio"},
		}
		return res, nil
	}

	// Traced pass: the same config with obs recording on, then W=1.
	rec := newRecorder()
	ref := fmt.Sprintf("%s/seed%d", name, seed)
	obs.Reset()
	obs.Enable()
	one := cfg
	one.Slots = 1
	t := time.Now()
	if _, _, err := timedRun(one); err != nil {
		return nil, err
	}
	setupDur := time.Since(t)
	rec.add(0, 0, "engine.setup", ref, t, t.Add(setupDur))
	obs.Reset()
	t = time.Now()
	mN, dN, err := timedRun(cfg)
	if err != nil {
		return nil, err
	}
	rec.add(0, 0, "engine.run", ref, t, time.Now())
	snap := obs.TakeSnapshot()
	cfg1 := cfg
	cfg1.Workers = 1
	t = time.Now()
	m1, d1, err := timedRun(cfg1)
	if err != nil {
		return nil, err
	}
	rec.add(0, 0, "engine.run.w1", ref, t, time.Now())
	obs.Disable()
	for _, c := range []struct {
		label string
		got   *engine.Metrics
	}{{"traced W=nproc", mN}, {"traced W=1", m1}} {
		if !reflect.DeepEqual(*m, *c.got) {
			problems = append(problems, fmt.Sprintf("%s Metrics %s differ from untraced %s", c.label, digest(c.got), digest(m)))
		}
	}
	rep.printf("[%s traced] Metrics digest W=%d %s, W=1 %s, untraced %s", name, nproc, digest(mN), digest(m1), digest(m))
	res.Correct = len(problems) == 0
	res.Failed = len(problems)
	for _, pr := range problems {
		rep.printf("[%s] CHECK FAILED: %s", name, pr)
	}

	setupMS := ms(setupDur)
	loop := dN - setupDur
	pool := func(n string) float64 { return float64(snap.Counters["exec.pool."+n]) }
	mt := map[string]metric{
		"trace_overhead_ratio":            {dN.Seconds() / runs.median(), "ratio"},
		"engine.setup_ms":                 {setupMS, "ms"},
		"engine.loop_ms":                  {ms(loop), "ms"},
		"engine.events":                   {float64(mN.Events), "count"},
		"engine.ns_per_event":             {ratio(float64(loop), float64(mN.Events)), "ns"},
		"engine.tx_per_delivery":          {ratio(float64(mN.Transmissions), float64(mN.Delivered)), "ratio"},
		"engine.speedup":                  {d1.Seconds() / dN.Seconds(), "ratio"},
		"engine.queue_op_ns":              {queueOpNS(w.Nodes, seed), "ns"},
		"exec.pool.tasks_per_active_slot": {ratio(pool("tasks"), float64(mN.ActiveSlots)), "count"},
		"exec.pool.utilization":           {ratio(pool("busy_ns"), pool("capacity_ns")), "ratio"},
		"exec.pool.queue_wait_us":         {snap.Histograms["exec.pool.queue_wait_ns"].P50 / 1e3, "us"},
	}
	kMean := ratio(float64(mN.Transmissions), float64(mN.ActiveSlots*int64(w.Gateways)))
	mt["mac.per_tx_prob_ns"] = metric{perTxProbNS(base, kMean, nil), "ns"}
	if fs, ok := cfg.Receiver.(engine.ForeignSlotSuccess); ok && len(w.Foreign) > 0 {
		fMean := ratio(float64(mN.ForeignTx), float64(mN.ActiveSlots*int64(w.Gateways)))
		mt["interfere.per_tx_prob_foreign_ns"] = metric{perTxProbNS(fs, kMean, &fMean), "ns"}
	}
	res.Metrics = mt
	rep.printf("[%s traced] engine.run %.1f ms = setup %.1f ms + loop %.1f ms; W=1 %.1f ms", name, ms(dN), setupMS, ms(loop), ms(d1))
	return res, rec.write(spansPath(name, seed))
}

// queueOpNS times EventQueue.Set then PopMin over every node ID at the
// workload's node count, and returns the mean cost of one operation.
func queueOpNS(nodes int, seed uint64) float64 {
	rng := rand.New(rand.NewPCG(seed, 0x9E))
	slots := make([]int64, nodes)
	for i := range slots {
		slots[i] = rng.Int64N(4096)
	}
	q := engine.NewEventQueue(nodes)
	t := time.Now()
	for i, s := range slots {
		q.Set(int32(i), s)
	}
	for q.Len() > 0 {
		q.PopMin()
	}
	return float64(time.Since(t).Nanoseconds()) / float64(2*nodes)
}

// perTxProbNS times the receiver's per-transmission probability at group
// sizes around the run's mean transmissions per gateway and active slot,
// with foreignMean foreign transmissions per gateway and slot spread over
// the six SFs (nil calls the plain mac.SlotSuccess method).
func perTxProbNS(rx mac.SlotSuccess, kMean float64, foreignMean *float64) float64 {
	kMax := max(1, int(2*kMean+0.5))
	var foreign [6]int32
	if foreignMean != nil {
		for j := range foreign {
			foreign[j] = int32(*foreignMean/6 + 0.5)
		}
	}
	fs, _ := rx.(engine.ForeignSlotSuccess)
	const calls = 1 << 20
	sink := 0.0
	t := time.Now()
	for i := 0; i < calls; i++ {
		k := 1 + i%kMax
		if foreignMean != nil {
			sink += fs.PerTxProbForeign(k, i%6, &foreign)
		} else {
			sink += rx.PerTxProb(k)
		}
	}
	d := time.Since(t)
	if sink < 0 {
		panic("negative probability")
	}
	return float64(d.Nanoseconds()) / calls
}
