// Package choir implements the paper's primary contribution: decoding
// collisions of LoRa chirp-spread-spectrum transmissions at a
// single-antenna base station by exploiting the natural hardware offsets
// (carrier-frequency offset, timing offset, channel) of low-cost LP-WAN
// clients.
//
// The pipeline mirrors Sections 4-7 of the paper:
//
//  1. Each received symbol window is dechirped and transformed with a
//     zero-padded FFT, turning every colliding transmitter into a spectral
//     peak at (data + aggregate offset) bins, where the aggregate offset
//     folds together CFO and timing offset via chirp duality.
//  2. Preamble windows (known data = 0) yield each user's aggregate offset.
//     Coarse peak positions are refined to a small fraction of a bin by
//     modelling inter-peak sinc leakage: channels are fit by least squares
//     and the offsets are jittered to minimize the reconstruction residual
//     (Algm. 1), which is locally convex.
//  3. Near-far collisions are handled by phased successive interference
//     cancellation: all simultaneously discernible strong users are
//     estimated jointly and subtracted together before searching for
//     weaker peaks (Sec. 5.2).
//  4. Data windows are matched to users by the fractional part of peak
//     positions (plus channel features), either greedily against the
//     preamble estimates or with constrained clustering (Sec. 6.2);
//     inter-symbol interference from timing offsets is de-duplicated
//     (Sec. 6.1).
//  5. Teams of below-noise transmitters sending identical data are detected
//     by coherently accumulating preamble spectra across windows and decoded
//     with a maximum-likelihood search over candidate symbols (Sec. 7.2).
package choir

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"

	"choir/internal/ctxutil"
	"choir/internal/dsp"
	"choir/internal/linalg"
	"choir/internal/lora"
)

// Config controls the decoder.
type Config struct {
	// LoRa is the PHY configuration of the colliding transmissions.
	LoRa lora.Params
	// Pad is the zero-padding factor for peak-resolution FFTs. The paper
	// uses 10×; the decoder rounds the FFT length up to the next power of
	// two (so 10 behaves as 16). Must be >= 4 for usable fractional
	// resolution.
	Pad int
	// MaxUsers caps how many colliding transmitters are tracked.
	MaxUsers int
	// PeakThreshold is the multiple of the spectrum's median magnitude a
	// peak must exceed to count as a user (default 5).
	PeakThreshold float64
	// FineSearch enables residual-minimization refinement of offsets
	// (Sec. 5.1). Disabling it degrades user tracking — the FineCFO
	// ablation bench quantifies how much.
	FineSearch bool
	// FineIters is the number of golden-section iterations per offset per
	// coordinate-descent sweep (default 16).
	FineIters int
	// SICPhases is the number of phased-SIC rounds on the preamble
	// (default 2; 0 disables SIC and loses weak users under near-far).
	SICPhases int
	// DynamicRangeDB is the per-window power range within which peaks are
	// accepted as users in one SIC phase (default 10 dB). Peaks further
	// below the strongest are deferred: they are indistinguishable from the
	// strong users' sinc side lobes until those users are modelled and
	// subtracted — the essence of phased SIC (Sec. 5.2).
	DynamicRangeDB float64
	// TotalDynamicRangeDB is the power span between the strongest and the
	// weakest user the decoder will report (default 35 dB). Anything weaker
	// is indistinguishable from SIC reconstruction residue; transmitters
	// that far down need the team decoding of Sec. 7 instead.
	TotalDynamicRangeDB float64
	// UseClustering maps data peaks to users with constrained clustering on
	// (fractional offset, channel magnitude) features, as in Sec. 6.2,
	// instead of greedy matching against preamble offsets.
	UseClustering bool
	// MatchTolerance is the maximum fractional-bin distance for greedy
	// peak-to-user matching (default 0.07). Wider tolerances survive noisier
	// offset estimates but raise the probability that two users' fractional
	// fingerprints collide — the binding constraint on how many concurrent
	// users scale (Sec. 5.2 note 3).
	MatchTolerance float64
	// Seed seeds the decoder's internal randomness (clustering restarts,
	// fine-search starting points). The decoder is deterministic for a
	// fixed seed.
	Seed uint64
}

// DefaultConfig returns the decoder configuration used in the evaluation.
func DefaultConfig(p lora.Params) Config {
	return Config{
		LoRa:                p,
		Pad:                 10,
		MaxUsers:            16,
		PeakThreshold:       5,
		FineSearch:          true,
		FineIters:           16,
		SICPhases:           2,
		DynamicRangeDB:      10,
		TotalDynamicRangeDB: 35,
		UseClustering:       false,
		MatchTolerance:      0.07,
		Seed:                1,
	}
}

// Decoder decodes LoRa collisions. Create one with New; it precomputes FFT
// plans and chirp tables and may be reused across packets. A Decoder is not
// safe for concurrent use (it owns scratch buffers); create one per
// goroutine, or borrow per-goroutine instances from an exec.DecoderPool
// (package internal/exec), which reseeds on checkout via Reseed so pooled
// reuse never changes results.
type Decoder struct {
	cfg    Config
	modem  *lora.Modem
	n      int      // symbol size
	padN   int      // padded FFT size (power of two >= Pad*n)
	pad    int      // effective padding factor padN/n
	fft    *dsp.FFT // padded-size plan
	symFFT *dsp.FFT // symbol-size plan
	pcg    *rand.PCG
	rng    *rand.Rand

	scratchDech []complex128
	scratchSpec []complex128
	scratchMags []float64

	// grid batches same-plan padded spectra across a tile of windows (or of
	// per-user matched-filter inputs) into contiguous slabs — the hot loops
	// compute whole grids per call instead of one spectrum at a time. Like
	// every other scratch field it grows to a high-water mark on the first
	// decode of a shape and is allocation-free afterwards.
	grid     *dsp.BatchSpectrum
	dataWins [][]complex128 // dechirped data windows feeding the round-0 grid
	ownTones [][]complex128 // per-user ML matched-filter inputs (one lane each)

	// Per-decode scratch arena plus dedicated reusable buffers for the
	// pipeline's per-window temporaries. Together they make steady-state
	// decodes allocation-free (see arena.go for the ownership rules).
	ar    arena
	lsWS  linalg.Workspace
	codec lora.CodecScratch

	peakScratch  dsp.PeakScratch
	noiseScratch []float64

	winsBuf   [][]complex128 // preamble working windows (SIC residuals)
	dechCopy  []complex128   // mutable copy of a dechirped window
	residBuf  []complex128   // residual workspace for segment-model sweeps
	workBuf   []complex128   // cleaned-window workspace
	maskedBuf []complex128   // masked / re-added tone workspace
	prefixBuf []complex128   // segmentFit prefix sums (n+1)
	recip     []float64      // segmentFit reciprocal table 1/i (n+1)
	prefPrev  []complex128   // accumulateBoundaryScan prefix sums (n+1)
	prefCur   []complex128
	prefNext  []complex128
	prefA     []complex128 // splitScore prefix sums (n+1)
	prefB     []complex128

	offsBuf     []float64
	scoresBuf   []float64
	powerBuf    []float64
	origMagBuf  []float64
	accBuf      []float64 // DetectTeam accumulated power spectrum
	hsBuf       []complex128
	hsFallback  []complex128
	i0sBuf      []int
	intTmp      []int
	boundsBuf   []int
	missingBuf  []int
	segModels   []segModel
	regsBuf     []segReg
	ownerBuf    []int
	candBuf     []matchCand
	usedPeakBuf []bool
	usedUserBuf []bool
	obsBuf      []binObs
	groupBuf    []obsGroup
	coarseBuf   []float64
	estFound    []userEstimate
	estAccum    []userEstimate
	allPeaksBuf [][]peakObs

	// ctx/ctxErr hold the active DecodeCtx context during a decode. ctxErr
	// latches the first observed cancellation (mapped to ErrCanceled /
	// ErrDeadline) so every later stage-boundary poll short-circuits. Both
	// are cleared when the decode returns, so a pooled decoder carries no
	// cancellation state between checkouts.
	ctx    context.Context
	ctxErr error
}

// New validates cfg and builds a decoder.
func New(cfg Config) (*Decoder, error) {
	if err := cfg.LoRa.Validate(); err != nil {
		return nil, err
	}
	if cfg.Pad < 4 {
		return nil, fmt.Errorf("choir: padding factor %d < 4", cfg.Pad)
	}
	if cfg.MaxUsers < 1 {
		return nil, fmt.Errorf("choir: MaxUsers %d < 1", cfg.MaxUsers)
	}
	if cfg.PeakThreshold <= 1 {
		return nil, fmt.Errorf("choir: PeakThreshold %g must exceed 1", cfg.PeakThreshold)
	}
	// Tunables default on zero but error on anything invalid: silently
	// clamping a negative or NaN value would mask a caller bug as the
	// default behavior.
	if cfg.FineIters < 0 {
		return nil, fmt.Errorf("choir: FineIters %d < 0", cfg.FineIters)
	}
	if cfg.FineIters == 0 {
		cfg.FineIters = 16
	}
	if cfg.SICPhases < 0 {
		return nil, fmt.Errorf("choir: SICPhases %d < 0", cfg.SICPhases)
	}
	if cfg.MatchTolerance < 0 || math.IsNaN(cfg.MatchTolerance) {
		return nil, fmt.Errorf("choir: MatchTolerance %g < 0", cfg.MatchTolerance)
	}
	if cfg.MatchTolerance == 0 {
		cfg.MatchTolerance = 0.07
	}
	if cfg.DynamicRangeDB < 0 || math.IsNaN(cfg.DynamicRangeDB) {
		return nil, fmt.Errorf("choir: DynamicRangeDB %g < 0", cfg.DynamicRangeDB)
	}
	if cfg.DynamicRangeDB == 0 {
		cfg.DynamicRangeDB = 10
	}
	if cfg.TotalDynamicRangeDB < 0 || math.IsNaN(cfg.TotalDynamicRangeDB) {
		return nil, fmt.Errorf("choir: TotalDynamicRangeDB %g < 0", cfg.TotalDynamicRangeDB)
	}
	if cfg.TotalDynamicRangeDB == 0 {
		cfg.TotalDynamicRangeDB = 35
	}
	modem, err := lora.NewModem(cfg.LoRa)
	if err != nil {
		return nil, err
	}
	n := cfg.LoRa.N()
	padN := dsp.NextPow2(cfg.Pad * n)
	fft := dsp.NewFFT(padN)
	pcg := rand.NewPCG(cfg.Seed, cfg.Seed^0xC0FFEE)
	return &Decoder{
		cfg:         cfg,
		modem:       modem,
		n:           n,
		padN:        padN,
		pad:         padN / n,
		fft:         fft,
		symFFT:      dsp.NewFFT(n),
		grid:        dsp.NewBatchSpectrum(fft),
		pcg:         pcg,
		rng:         rand.New(pcg),
		scratchDech: make([]complex128, n),
		scratchSpec: make([]complex128, padN),
		scratchMags: make([]float64, padN),
	}, nil
}

// MustNew is New that panics on error, for tests and examples.
func MustNew(cfg Config) *Decoder {
	d, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// Config returns the decoder's configuration.
func (d *Decoder) Config() Config { return d.cfg }

// Reseed resets the decoder's internal randomness (clustering restarts,
// fine-search starting points) to the deterministic state New would produce
// for seed. Decoder pools reseed on checkout so a pooled decoder's results
// depend only on the trial's derived seed, never on which trials the
// instance served before. Reseeding is allocation-free: the PCG source is
// reset in place (rand/v2's Rand holds no state of its own), producing the
// identical stream a freshly built decoder would.
func (d *Decoder) Reseed(seed uint64) {
	d.cfg.Seed = seed
	d.pcg.Seed(seed, seed^0xC0FFEE)
}

// User is one transmitter recovered from a collision.
type User struct {
	// Offset is the aggregate hardware offset in FFT bins, modulo the symbol
	// size, with sub-bin precision. Its fractional part is the fingerprint
	// that tracks the user across symbols.
	Offset float64
	// Gain is the estimated complex channel (averaged over the preamble).
	Gain complex128
	// Symbols is the decoded data-symbol sequence.
	Symbols []int
	// Payload is the decoded payload; nil when decoding failed.
	Payload []byte
	// Err records why payload decoding failed (CRC, FEC, tracking loss).
	Err error
	// WindowOffsets are the per-window raw offset estimates (preamble and
	// data), used to characterize offset stability (paper Fig. 7).
	WindowOffsets []float64
}

// FracOffset returns the fractional part of the user's offset in [0,1).
func (u *User) FracOffset() float64 {
	f := u.Offset - math.Floor(u.Offset)
	if f < 0 {
		f += 1
	}
	return f
}

// Decoded reports whether the payload decoded cleanly.
func (u *User) Decoded() bool { return u.Err == nil && u.Payload != nil }

// Result is the outcome of decoding one collision.
type Result struct {
	// Users holds every separated transmitter, strongest first.
	Users []*User
}

// DecodedPayloads returns the payloads of all successfully decoded users.
func (r *Result) DecodedPayloads() [][]byte {
	var out [][]byte
	for _, u := range r.Users {
		if u.Decoded() {
			out = append(out, u.Payload)
		}
	}
	return out
}

// ErrNoUsers is returned when no transmitter is detected in the signal.
var ErrNoUsers = errors.New("choir: no users detected")

// Decode disentangles a collision. samples must start at the nominal slot
// boundary (all transmitters begin within a sub-symbol timing offset of
// sample zero) and contain the full frame; payloadLen is the expected
// payload length in bytes, as fixed by the network's schedule.
func (d *Decoder) Decode(samples []complex128, payloadLen int) (*Result, error) {
	return d.DecodeCtx(context.Background(), samples, payloadLen)
}

// DecodeInto is Decode recycling the caller's Result: the Users slice, the
// User structs and their Symbols/WindowOffsets/Payload storage are reused
// instead of reallocated, so a warmed-up decoder decoding same-shaped
// collisions performs zero heap allocations per call. res may be the Result
// of any previous decode (its contents are fully overwritten) or an empty
// &Result{}; it must not be nil and must not be in use by another goroutine.
// Decode results are bit-identical to Decode's.
func (d *Decoder) DecodeInto(res *Result, samples []complex128, payloadLen int) (*Result, error) {
	if res == nil {
		res = &Result{}
	}
	if err := d.decodeCtxInto(context.Background(), res, samples, payloadLen); err != nil {
		return nil, err
	}
	return res, nil
}

// DecodeCtx is Decode bounded by a context. Cancellation is cooperative:
// the decoder polls ctx between pipeline stages (preamble windows, SIC
// phases, data windows, IC sweeps) and returns a typed ErrCanceled or
// ErrDeadline — wrapping ctx.Err() — within one stage boundary of the
// context firing. A context that never fires does not perturb the decode:
// results are bit-identical to Decode. The decoder remains valid for reuse
// after a canceled decode (scratch state is rebuilt per call and the RNG is
// untouched by the polls), so pooled decoders need no special handling.
func (d *Decoder) DecodeCtx(ctx context.Context, samples []complex128, payloadLen int) (*Result, error) {
	res := &Result{}
	if err := d.decodeCtxInto(ctx, res, samples, payloadLen); err != nil {
		return nil, err
	}
	return res, nil
}

// DecodeCtxInto combines DecodeCtx's cooperative cancellation with
// DecodeInto's storage recycling: res is fully overwritten on success and
// left untouched by the caller's next reuse on failure. It is the
// lowest-level decode entry point — backends that pool decoders and Results
// together call it to keep the steady state allocation-free.
func (d *Decoder) DecodeCtxInto(ctx context.Context, res *Result, samples []complex128, payloadLen int) error {
	if res == nil {
		return fmt.Errorf("choir: DecodeCtxInto with nil Result")
	}
	return d.decodeCtxInto(ctx, res, samples, payloadLen)
}

// decodeCtxInto runs the decode pipeline, filling res (whose storage it
// recycles when present).
func (d *Decoder) decodeCtxInto(ctx context.Context, res *Result, samples []complex128, payloadLen int) error {
	d.armCtx(ctx)
	defer d.disarmCtx()
	d.ar.reset()
	sp := mDecodeTimer.Start()
	defer sp.Stop()
	mDecodes.Inc()
	p := d.cfg.LoRa
	need := p.FrameSamples(payloadLen)
	if len(samples) < need {
		err := fmt.Errorf("%w: have %d samples, need %d", lora.ErrShortSignal, len(samples), need)
		countDecodeErr(err)
		return err
	}
	if err := validateIQ(samples); err != nil {
		countDecodeErr(err)
		return err
	}
	ests := d.estimatePreamble(samples)
	if d.canceled() {
		countDecodeErr(d.ctxErr)
		return d.ctxErr
	}
	if len(ests) == 0 {
		countDecodeErr(ErrNoUsers)
		return ErrNoUsers
	}
	mUsersDetected.Add(int64(len(ests)))
	users := d.decodeData(res, samples, ests, payloadLen)
	if d.canceled() {
		countDecodeErr(d.ctxErr)
		return d.ctxErr
	}
	for _, u := range users {
		countUserOutcome(u)
	}
	countDecodeErr(nil)
	res.Users = users
	return nil
}

// armCtx installs ctx as the active decode context. Contexts that can never
// fire — nil, Background, TODO, anything ctxutil.CanFire rejects — are not
// installed, so plain Decode pays nothing for the cancellation machinery and
// produces bit-identical results with or without such a context (the
// contract package ctxutil documents for every optional-context layer).
func (d *Decoder) armCtx(ctx context.Context) {
	d.ctx, d.ctxErr = nil, nil
	if ctxutil.CanFire(ctx) {
		d.ctx = ctx
	}
}

func (d *Decoder) disarmCtx() { d.ctx, d.ctxErr = nil, nil }

// canceled polls the active decode context once — this is the cooperative
// cancellation point the pipeline stages call at their boundaries — and
// latches the first failure as a typed error in d.ctxErr.
func (d *Decoder) canceled() bool {
	if d.ctxErr != nil {
		return true
	}
	if d.ctx == nil {
		return false
	}
	select {
	case <-d.ctx.Done():
		cause := d.ctx.Err()
		if errors.Is(cause, context.DeadlineExceeded) {
			d.ctxErr = fmt.Errorf("%w: %w", ErrDeadline, cause)
		} else {
			d.ctxErr = fmt.Errorf("%w: %w", ErrCanceled, cause)
		}
		return true
	default:
		return false
	}
}

// dechirpWindow dechirps the n-sample window starting at off into the
// decoder's scratch buffer and returns it (valid until the next call).
func (d *Decoder) dechirpWindow(samples []complex128, off int) []complex128 {
	sp := mStageDechirp.Start()
	out := lora.Dechirp(d.scratchDech, samples[off:off+d.n], d.modem.Down())
	sp.Stop()
	return out
}

// paddedSpectrum computes the complex zero-padded spectrum of a dechirped
// window into scratch (valid until the next call). The pruned transform skips
// the structurally-zero butterfly stages of the padded input and the former
// zero-then-copy of a padded buffer; the spectrum matches the full transform
// bit-for-bit (up to the sign of zero, invisible through any downstream use).
func (d *Decoder) paddedSpectrum(dech []complex128) []complex128 {
	sp := mStageFFT.Start()
	out := d.fft.TransformPruned(d.scratchSpec, dech)
	sp.Stop()
	return out
}

// specTile bounds how many windows one spectral grid holds at a time: tiles
// keep the slab (padN complex + padN float64 per lane) within cache-friendly
// bounds at high spreading factors while still amortizing the per-call
// bookkeeping over a whole tile.
const specTile = 16

// gridCompute fills the decoder's shared spectral grid with the padded
// spectra (and magnitude rows) of up to specTile windows, under one FFT
// metric span. Lane i is bit-identical to paddedSpectrum(srcs[i]) followed
// by magnitudes — the pruned kernel runs unchanged per lane — so call sites
// that switch from the serial helpers to the grid preserve golden results.
// The grid is scratch: lanes are valid until the next gridCompute.
func (d *Decoder) gridCompute(srcs [][]complex128) {
	sp := mStageFFT.Start()
	d.grid.Compute(srcs)
	sp.Stop()
}

// magnitudes converts a complex spectrum to magnitudes in the decoder's
// scratch slice (valid until the next call).
func (d *Decoder) magnitudes(spec []complex128) []float64 {
	if cap(d.scratchMags) < len(spec) {
		d.scratchMags = make([]float64, len(spec))
	}
	out := d.scratchMags[:len(spec)]
	for i, v := range spec {
		out[i] = math.Hypot(real(v), imag(v))
	}
	return out
}

// c128Buf resizes *buf to length n, reusing its capacity, and returns it.
// Contents are unspecified; callers overwrite.
func c128Buf(buf *[]complex128, n int) []complex128 {
	if cap(*buf) < n {
		*buf = make([]complex128, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// f64Buf is c128Buf for float64 slices.
func f64Buf(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// intBuf is c128Buf for int slices.
func intBuf(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// boolBuf is c128Buf for bool slices, returned zeroed.
func boolBuf(buf *[]bool, n int) []bool {
	if cap(*buf) < n {
		*buf = make([]bool, n)
	}
	*buf = (*buf)[:n]
	for i := range *buf {
		(*buf)[i] = false
	}
	return *buf
}

// specAt samples a complex padded spectrum at a fractional natural-bin
// position by nearest-padded-bin lookup.
func specAt(spec []complex128, bin float64, pad, n int) complex128 {
	idx := int(math.Round(bin*float64(pad))) % (n * pad)
	if idx < 0 {
		idx += n * pad
	}
	return spec[idx]
}
