package gateway

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"choir/internal/backend"
	"choir/internal/choir"
	"choir/internal/exec"
	"choir/internal/obs"
)

// Stage is a rung INDEX into the gateway's decode-recovery ladder. The
// ladder itself is an ordered list of registered backend names
// (Config.Ladder); Stage survives as the positional coordinate because the
// decode-seed contract is keyed by rung position — seeds depend only on
// (gateway seed, frame ID, rung index), so reordering a ladder reassigns
// seeds with it, while renaming a backend does not. Everything
// human-facing (metrics, logs, Outcome.Backend) is keyed by backend name.
type Stage int

// Rung indices of the default ladder (see DefaultLadder). Kept as named
// constants because tests and operators reason about the default ladder's
// shape; custom ladders index past them freely.
const (
	// StageFull is the paper's full Choir pipeline: phased SIC, fine
	// offset refinement, the default peak and matching tunables.
	StageFull Stage = iota
	// StageRelaxed retries with loosened tunables — lower peak threshold,
	// wider fingerprint-matching tolerance, wider per-phase dynamic range —
	// recovering frames whose offsets drifted or whose peaks sank below the
	// default gates (clipping, interferers, oscillator steps).
	StageRelaxed
	// StageStrongest is the cheap last resort: track only the single
	// strongest user with SIC disabled. It abandons the collision's weak
	// users to salvage at least one payload per capture.
	StageStrongest
)

// String implements fmt.Stringer with the historical rung names for the
// default ladder's indices. Outcome.Backend carries the authoritative
// backend name.
func (s Stage) String() string {
	switch s {
	case StageFull:
		return "full"
	case StageRelaxed:
		return "relaxed"
	case StageStrongest:
		return "strongest"
	default:
		return fmt.Sprintf("rung%d", int(s))
	}
}

// DefaultLadder is the ladder Config.Ladder defaults to: the paper's full
// Choir pipeline, the relaxed-tunables retry, and the
// single-strongest-user salvage — the same recovery sequence the gateway
// ran before the rungs became pluggable backends.
func DefaultLadder() []string { return []string{"choir", "relaxed", "strongest"} }

// rung is one configured ladder position: a registered backend name plus
// the per-rung circuit breaker and name-keyed metrics. Two gateways with a
// shared backend name share the process-wide metric instances (obs
// registration is idempotent by name) but never a breaker.
type rung struct {
	name    string
	breaker *breaker

	attempts *obs.Counter
	success  *obs.Counter
	trips    *obs.Counter
	skips    *obs.Counter
}

func newRung(name string, threshold, cooldown int) *rung {
	return &rung{
		name:     name,
		breaker:  &breaker{threshold: threshold, cooldown: cooldown},
		attempts: obs.NewCounter("gateway.stage." + name + ".attempts"),
		success:  obs.NewCounter("gateway.stage." + name + ".success"),
		trips:    obs.NewCounter("gateway.breaker." + name + ".trips"),
		skips:    obs.NewCounter("gateway.breaker." + name + ".skips"),
	}
}

// breaker is a per-rung circuit breaker. Sustained consecutive failures
// trip it open; while open, attempts at that rung are skipped (the ladder
// falls through to the cheaper rung immediately). After cooldown skipped
// attempts it half-opens and lets a single probe through: a successful
// probe closes it, a failed one re-opens it for another cooldown.
//
// All methods are safe for concurrent use by the worker goroutines.
type breaker struct {
	threshold int // consecutive failures to trip; <= 0 disables the breaker
	cooldown  int // skips before half-opening

	mu         sync.Mutex
	consecFail int
	tripped    bool
	skipped    int
	probing    bool // half-open: one probe is in flight
}

// allow reports whether an attempt at this rung may proceed. When it
// returns false the caller must not call record for this attempt.
func (b *breaker) allow() (ok, wasSkip bool) {
	if b.threshold <= 0 {
		return true, false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.tripped {
		return true, false
	}
	if b.probing {
		// Another worker's probe is in flight; stay shed until it reports.
		b.skipped++
		return false, true
	}
	b.skipped++
	if b.skipped >= b.cooldown {
		b.probing = true
		return true, false
	}
	return false, true
}

// record reports an attempt's outcome to the breaker.
func (b *breaker) record(success bool) {
	if b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if success {
		b.consecFail = 0
		b.tripped = false
		b.skipped = 0
		b.probing = false
		return
	}
	if b.probing {
		// Failed probe: back to open for another cooldown.
		b.probing = false
		b.skipped = 0
		return
	}
	b.consecFail++
	if !b.tripped && b.consecFail >= b.threshold {
		b.tripped = true
		b.skipped = 0
	}
}

// isTripped reports whether the breaker is currently open (for tests and
// stats; the decode path uses allow).
func (b *breaker) isTripped() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tripped
}

// decodeLadder runs one frame through the recovery ladder and returns its
// terminal outcome. Attempt k (1-based) uses rung min(k-1, last), so with
// MaxAttempts = len(ladder) every rung is tried once and with larger
// budgets the extra attempts repeat the last (cheapest) rung. Between
// attempts it sleeps a seeded exponential backoff with jitter, cancelable
// by the gateway context. Breaker-skipped rungs do not consume attempts.
func (g *Gateway) decodeLadder(f *Frame) Outcome {
	o := Outcome{FrameID: f.ID, Source: f.Source}
	// Backoff jitter is seeded per frame so a replay of the same capture
	// sequence schedules identically; it never influences decode results.
	rng := rand.New(rand.NewPCG(g.cfg.Seed^f.ID, 0xBAC0FF))
	last := len(g.rungs) - 1
	attempt := 0
	var lastErr error

	for idx := 0; attempt < g.cfg.MaxAttempts; idx++ {
		stage := Stage(min(idx, last))
		r := g.rungs[stage]
		allowed, wasSkip := r.breaker.allow()
		if !allowed {
			if wasSkip {
				r.skips.Inc()
			}
			if int(stage) == last {
				// Nothing cheaper to fall through to.
				break
			}
			continue
		}
		attempt++
		if attempt > 1 {
			mRetries.Inc()
			if !g.backoff(rng, attempt) {
				// Gateway shutting down mid-backoff.
				lastErr = fmt.Errorf("%w: %w", choir.ErrCanceled, g.ctx.Err())
				break
			}
		}
		r.attempts.Inc()
		payloads, users, err := g.attempt(f, stage, r)
		if err == nil {
			r.breaker.record(true)
			r.success.Inc()
			o.Kind = OutcomeDecoded
			o.Stage = stage
			o.Backend = r.name
			o.Attempts = attempt
			o.Users = users
			o.Payloads = payloads
			if stage > 0 {
				mRecovered.Inc()
			}
			return o
		}
		lastErr = err
		if g.ctx.Err() != nil {
			// The gateway is stopping: the failure says nothing about the
			// rung's health, so don't poison its breaker, and don't keep
			// retrying a decode that will only ever see a dead context.
			break
		}
		if errors.Is(err, ErrStreamAborted) {
			// The peer died before delivering the frame: the samples will
			// never complete, so retries are pointless, and like shutdown
			// this is an input failure, not evidence about the rung.
			break
		}
		tripped := r.breaker.isTripped()
		r.breaker.record(false)
		if !tripped && r.breaker.isTripped() {
			r.trips.Inc()
		}
		if int(stage) == last && attempt >= g.cfg.MaxAttempts {
			break
		}
	}
	if lastErr == nil {
		lastErr = ErrCircuitBroken
	}
	o.Kind = OutcomeFailed
	o.Attempts = attempt
	o.Err = fmt.Errorf("%w: %w", ErrLadderExhausted, lastErr)
	return o
}

// backoff sleeps the exponential-with-jitter delay before attempt k (k >=
// 2), returning false if the gateway context fired first.
func (g *Gateway) backoff(rng *rand.Rand, attempt int) bool {
	base := g.cfg.BackoffBase
	if base <= 0 {
		return g.ctx.Err() == nil
	}
	d := base << (attempt - 2)
	const maxBackoff = time.Second
	if d > maxBackoff || d <= 0 { // <= 0: shift overflow
		d = maxBackoff
	}
	// Jitter in [d/2, 3d/2): decorrelates retry storms across frames.
	d = d/2 + time.Duration(rng.Int64N(int64(d)))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-g.ctx.Done():
		return false
	}
}

// attempt runs one decode at one ladder rung. A panic anywhere inside the
// backend is recovered into ErrDecodePanic, isolating poisoned frames to a
// typed per-frame error. Each attempt gets its own deadline (DecodeTimeout)
// derived from the gateway context, enforced cooperatively by the backend's
// cancellation points.
func (g *Gateway) attempt(f *Frame, stage Stage, r *rung) (payloads [][]byte, users int, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			mPanics.Inc()
			payloads, users = nil, 0
			err = fmt.Errorf("%w: backend %s: %v", ErrDecodePanic, r.name, rec)
		}
	}()
	ctx := g.ctx
	if g.cfg.DecodeTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, g.cfg.DecodeTimeout)
		defer cancel()
	}
	pool, err := g.poolFor(f.Header.Params, r.name)
	if err != nil {
		return nil, 0, err
	}
	// The decoder seed depends only on (gateway seed, frame ID, rung
	// index): replaying a capture stream through any worker count
	// reproduces every outcome bit for bit.
	b := pool.Get(exec.DeriveSeed(g.cfg.Seed, f.ID, uint64(stage)))
	defer pool.Put(b)
	sp := tDecode.Start()
	res, err := g.decodeFrame(ctx, b, f)
	sp.Stop()
	if err != nil {
		return nil, 0, err
	}
	payloads, users = collectPayloads(res)
	if len(payloads) == 0 {
		return nil, users, ErrNoPayloads
	}
	return payloads, users, nil
}

// collectPayloads pulls the recovered payloads out of a decode result.
func collectPayloads(res *choir.Result) ([][]byte, int) {
	var payloads [][]byte
	for _, u := range res.Users {
		if u.Decoded() {
			payloads = append(payloads, u.Payload)
		}
	}
	return payloads, len(res.Users)
}

// decodeFrame runs one backend over one frame's samples, routing streaming
// frames through the backend's StreamDecoder capability so preamble
// detection overlaps the network still delivering data symbols. Backends
// without the capability (and retries after the stream completed — the wait
// then returns immediately) decode the full buffer; either way the result
// is bit-identical to decoding the completed capture.
func (g *Gateway) decodeFrame(ctx context.Context, b backend.Backend, f *Frame) (*choir.Result, error) {
	if f.stream == nil {
		return backend.DecodeCtx(ctx, b, f.Samples, f.Header.PayloadLen)
	}
	if sd, ok := b.(backend.StreamDecoder); ok {
		res := &choir.Result{}
		if err := sd.DecodeStreamCtxInto(ctx, res, f.Samples, f.Header.PayloadLen, f.stream.Avail); err != nil {
			return nil, err
		}
		return res, nil
	}
	if err := f.stream.Avail(ctx, len(f.Samples)); err != nil {
		return nil, err
	}
	return backend.DecodeCtx(ctx, b, f.Samples, f.Header.PayloadLen)
}
