package main

import (
	"math/rand/v2"
	"sort"
	"sync"
	"time"
)

// poissonSchedule returns n send times over [0, span): the arrival times of
// a Poisson process conditioned on n arrivals in the window, which are n
// sorted uniform draws. Fixing n keeps the offered load per run exact while
// the gaps stay exponential-like, as from independent sensors.
func poissonSchedule(rng *rand.Rand, n int, span time.Duration) []time.Duration {
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(rng.Int64N(int64(span)))
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	return due
}

// openLoop sends item i at t0+due[i], whether or not earlier sends have
// finished: a dispatcher releases each item at its due time into a queue it
// never waits on, and at most conns senders drain that queue. A slow send
// makes later items start late — lag[i] records how late — but never moves
// the schedule, so latency timed from the due time includes every stall.
func openLoop(due []time.Duration, conns int, send func(i int, due time.Time)) (t0 time.Time, lag []time.Duration) {
	lag = make([]time.Duration, len(due))
	// Sized to the number of sends, so the dispatcher never blocks.
	ready := make(chan int, len(due))
	var wg sync.WaitGroup
	t0 = time.Now()
	wg.Add(conns)
	for c := 0; c < conns; c++ {
		go func() {
			defer wg.Done()
			for i := range ready {
				at := t0.Add(due[i])
				lag[i] = time.Since(at)
				send(i, at)
			}
		}()
	}
	for i, d := range due {
		if wait := time.Until(t0.Add(d)); wait > 0 {
			time.Sleep(wait)
		}
		ready <- i
	}
	close(ready)
	wg.Wait()
	return t0, lag
}
