package choir

import (
	"math"
	"slices"
	"sort"

	"choir/internal/dsp"
)

// userEstimate is one transmitter's preamble-derived state. Its slice fields
// are arena-backed: valid for the rest of the current decode only.
type userEstimate struct {
	offset   float64      // aggregate offset in bins (mod n), sub-bin precision
	gain     complex128   // channel averaged coherently over preamble windows
	power    float64      // mean |h|²
	perWin   []float64    // raw per-window offset estimates (Fig. 7 stability)
	gainWin  []complex128 // per-window channel estimates
	i0Win    []int        // per-window symbol-boundary estimates
	boundary int          // median boundary: where the user's symbol edge falls inside windows
}

// estimatePreamble recovers every discernible user's aggregate offset and
// channel from the preamble windows, applying phased SIC to surface weak
// users buried under strong ones.
func (d *Decoder) estimatePreamble(samples []complex128) []userEstimate {
	sp := mStagePreamble.Start()
	defer sp.Stop()
	p := d.cfg.LoRa
	nWin := p.PreambleLen

	// Working copies of each dechirped preamble window: SIC subtracts
	// reconstructed strong users from these. The window buffers persist on
	// the decoder and are overwritten every decode.
	if cap(d.winsBuf) < nWin {
		d.winsBuf = append(d.winsBuf[:cap(d.winsBuf)], make([][]complex128, nWin-cap(d.winsBuf))...)
	}
	wins := d.winsBuf[:nWin]
	for w := 0; w < nWin; w++ {
		if d.canceled() {
			return nil
		}
		dech := d.dechirpWindow(samples, w*d.n)
		wins[w] = c128Buf(&wins[w], d.n)
		copy(wins[w], dech)
	}

	users := d.estAccum[:0]
	for phase := 0; phase <= d.cfg.SICPhases; phase++ {
		if d.canceled() {
			d.estAccum = users
			return nil
		}
		found := d.findPreambleUsers(wins, users)
		if len(found) == 0 {
			break
		}
		users = append(users, found...)
		if len(users) >= d.cfg.MaxUsers || phase == d.cfg.SICPhases {
			break
		}
		// Subtract every user found so far (jointly re-fit per window) so
		// the next phase can see weaker peaks.
		mSICPhases.Inc()
		sicSp := mStageSIC.Start()
		d.subtractUsers(wins, users)
		sicSp.Stop()
	}
	d.estAccum = users
	slices.SortFunc(users, func(a, b userEstimate) int {
		if a.power > b.power {
			return -1
		}
		if a.power < b.power {
			return 1
		}
		return 0
	})
	users = d.mergeMultipathRays(users)
	if len(users) > d.cfg.MaxUsers {
		users = users[:d.cfg.MaxUsers]
	}
	// Drop "users" so far below the strongest that they can only be SIC
	// reconstruction residue.
	if len(users) > 1 {
		floor := users[0].power * math.Pow(10, -d.cfg.TotalDynamicRangeDB/10)
		keep := users[:1]
		for _, u := range users[1:] {
			if u.power >= floor {
				keep = append(keep, u)
			}
		}
		users = keep
	}
	return users
}

// findPreambleUsers detects peaks that appear consistently across the
// preamble windows and estimates their offsets and channels. Peaks within
// one bin of an already-known user are ignored: after SIC subtraction, small
// reconstruction residue at a strong user's bin must not be re-discovered as
// a ghost user.
func (d *Decoder) findPreambleUsers(wins [][]complex128, known []userEstimate) []userEstimate {
	budget := d.cfg.MaxUsers - len(known)
	if budget <= 0 {
		return nil
	}
	// Two rules reject a known user's subtraction residue while still
	// letting a genuine second user hiding under its skirt surface from the
	// residual: (1) anything within 0.35 bins of a known user is its own
	// leftover; (2) anything within 1.5 bins must carry at least -12 dB of
	// that user's power — reconstruction residue sits 20-25 dB down,
	// whereas a real neighbour close enough to have been masked is by
	// construction within the per-phase dynamic range.
	nearKnown := func(bin, mag float64) bool {
		for _, u := range known {
			dist := dsp.CircularBinDist(bin, u.offset, float64(d.n))
			if dist < 0.35 {
				return true
			}
			if dist < 1.5 {
				parentMag := math.Sqrt(u.power) * float64(d.n)
				if mag < parentMag*math.Pow(10, -12.0/20) {
					return true
				}
			}
		}
		return false
	}

	// Collect peaks per window. Peaks more than DynamicRangeDB below the
	// window's strongest are deferred to a later SIC phase: at that depth
	// they cannot be told apart from the strong peaks' sinc side lobes, so
	// they must wait until the strong users are modelled and subtracted.
	// Observations are gathered in window order into one flat reusable
	// buffer; the grouping pass below only needs that order, not the
	// per-window structure.
	// The whole scan tile's spectra are computed as one batched grid; the
	// per-window peak hunt then walks the grid's magnitude lanes. Lane
	// values are bit-identical to the serial paddedSpectrum/magnitudes pair,
	// so the peaks — and everything downstream — are unchanged.
	relCut := math.Pow(10, -d.cfg.DynamicRangeDB/20)
	obsAll := d.obsBuf[:0]
	for base := 0; base < len(wins); base += specTile {
		tile := wins[base:min(base+specTile, len(wins))]
		d.gridCompute(tile)
		for wi := range tile {
			mags := d.grid.Mags(wi)
			pkSp := mStagePeaks.Start()
			floor := dsp.NoiseFloorScratch(mags, f64Buf(&d.noiseScratch, len(mags)))
			peaks := dsp.FindPeaksScratch(&d.peakScratch, mags, dsp.PeakConfig{
				Pad:           d.pad,
				MinSeparation: 0.9,
				Threshold:     floor * d.cfg.PeakThreshold,
				Max:           budget + 4,
			})
			pkSp.Stop()
			for _, pk := range peaks {
				if nearKnown(pk.Bin, pk.Mag) {
					continue
				}
				if len(peaks) > 0 && pk.Mag < peaks[0].Mag*relCut {
					continue
				}
				obsAll = append(obsAll, binObs{bin: pk.Bin, mag: pk.Mag})
			}
		}
	}
	d.obsBuf = obsAll

	// Group observations across windows by circular proximity (< 0.5 bin),
	// matching each observation to the nearest existing group. Groups carry
	// running circular-mean sums instead of member lists (see obsGroup).
	groups := d.groupBuf[:0]
	period := float64(d.n)
	for _, o := range obsAll {
		best, bestDist := -1, 0.5
		for gi := range groups {
			ref := circularMeanFromSums(groups[gi].sx, groups[gi].sy, period)
			if dist := dsp.CircularBinDist(ref, o.bin, period); dist < bestDist {
				best, bestDist = gi, dist
			}
		}
		s, c := math.Sincos(2 * math.Pi * o.bin / period)
		if best >= 0 {
			groups[best].sx += c
			groups[best].sy += s
			groups[best].magSum += o.mag
			groups[best].hits++
		} else {
			groups = append(groups, obsGroup{sx: c, sy: s, magSum: o.mag, hits: 1})
		}
	}
	d.groupBuf = groups

	// A user must appear in at least half the preamble windows. Keep the
	// strongest groups when the budget binds. The sort key reproduces the
	// original mean(mags)*hits expression exactly.
	minHits := (len(wins) + 1) / 2
	slices.SortFunc(groups, func(a, b obsGroup) int {
		ka := a.magSum / float64(a.hits) * float64(a.hits)
		kb := b.magSum / float64(b.hits) * float64(b.hits)
		if ka > kb {
			return -1
		}
		if ka < kb {
			return 1
		}
		return 0
	})
	coarse := d.coarseBuf[:0]
	for _, g := range groups {
		if g.hits >= minHits {
			coarse = append(coarse, circularMeanFromSums(g.sx, g.sy, period))
		}
	}
	d.coarseBuf = coarse
	if len(coarse) == 0 {
		return nil
	}
	coarse = d.validateCandidates(wins, coarse)
	if len(coarse) == 0 {
		return nil
	}
	if len(coarse) > budget {
		coarse = coarse[:budget]
	}

	// Joint per-window refinement: least-squares channels (+ optional
	// residual-minimization of offsets), then aggregate across windows.
	if cap(d.estFound) < len(coarse) {
		d.estFound = make([]userEstimate, len(coarse))
	}
	ests := d.estFound[:len(coarse)]
	for i := range ests {
		ests[i] = userEstimate{
			perWin:  d.ar.f64.takeCap(len(wins)),
			gainWin: d.ar.c128.takeCap(len(wins)),
			i0Win:   d.ar.ints.takeCap(len(wins)),
		}
	}
	for _, dech := range wins {
		if d.canceled() {
			return nil
		}
		var offs []float64
		var hs []complex128
		var i0s []int
		if d.cfg.FineSearch {
			offs, hs, i0s = d.refineOffsets(dech, coarse)
		} else {
			offs = coarse
			hs = d.fitChannels(dech, offs)
			i0s = intBuf(&d.i0sBuf, len(offs))
			for i := range i0s {
				i0s[i] = 0
			}
		}
		for i := range ests {
			ests[i].perWin = append(ests[i].perWin, offs[i])
			ests[i].gainWin = append(ests[i].gainWin, hs[i])
			ests[i].i0Win = append(ests[i].i0Win, i0s[i])
		}
	}
	for i := range ests {
		ests[i].offset = circularMean(ests[i].perWin, period)
		ests[i].gain = coherentGain(ests[i].gainWin)
		ests[i].boundary = d.medianIntScratch(ests[i].i0Win)
		var pw float64
		for _, h := range ests[i].gainWin {
			pw += real(h)*real(h) + imag(h)*imag(h)
		}
		ests[i].power = pw / float64(len(ests[i].gainWin))
	}
	return ests
}

// medianInt returns the median of xs (0 for empty input).
func medianInt(xs []int) int {
	if len(xs) == 0 {
		return 0
	}
	tmp := append([]int(nil), xs...)
	sort.Ints(tmp)
	return tmp[len(tmp)/2]
}

// medianIntScratch is medianInt on a reusable scratch copy.
func (d *Decoder) medianIntScratch(xs []int) int {
	if len(xs) == 0 {
		return 0
	}
	tmp := intBuf(&d.intTmp, len(xs))
	copy(tmp, xs)
	slices.Sort(tmp)
	return tmp[len(tmp)/2]
}

// coherentGain averages per-window channel estimates coherently. The
// inter-window phase increment cannot be predicted from the aggregate
// offset — only its CFO component advances the carrier phase between
// windows, and the aggregate folds CFO and timing together — so the
// increment is estimated empirically from consecutive windows and removed
// before averaging.
func coherentGain(gainWin []complex128) complex128 {
	if len(gainWin) == 0 {
		return 0
	}
	if len(gainWin) == 1 {
		return gainWin[0]
	}
	var acc complex128
	for w := 1; w < len(gainWin); w++ {
		prev := gainWin[w-1]
		acc += gainWin[w] * complex(real(prev), -imag(prev))
	}
	phi := math.Atan2(imag(acc), real(acc))
	var sum complex128
	for w, h := range gainWin {
		s, c := math.Sincos(-phi * float64(w))
		sum += h * complex(c, s)
	}
	return sum / complex(float64(len(gainWin)), 0)
}

// mergeMultipathRays collapses candidate users that are resolvable rays of
// one transmitter. A multipath echo delayed by whole samples dechirps into
// a tone with the SAME fractional offset as the direct ray, a small integer
// number of bins away (chirps resolve delay like radar). Two genuinely
// different transmitters in that configuration would be untrackable anyway
// — their fingerprints coincide — so the strongest ray wins either way.
// users must arrive sorted strongest-first.
func (d *Decoder) mergeMultipathRays(users []userEstimate) []userEstimate {
	const maxRaySpreadBins = 4.0
	out := users[:0]
	for _, u := range users {
		uFrac := u.offset - math.Floor(u.offset)
		absorbed := false
		for _, kept := range out {
			kFrac := kept.offset - math.Floor(kept.offset)
			if math.Abs(dsp.FracDiff(uFrac, kFrac)) < d.cfg.MatchTolerance/2 &&
				dsp.CircularBinDist(u.offset, kept.offset, float64(d.n)) <= maxRaySpreadBins {
				absorbed = true
				break
			}
		}
		if !absorbed {
			out = append(out, u)
		}
	}
	return out
}

// validateCandidates weeds out candidate offsets that are artifacts of a
// stronger user's sub-sample timing offset. A fractionally-delayed chirp
// dechirps into a two-segment tone whose short segment is a broad sinc that
// throws spurious peaks several bins around the true one; those peaks repeat
// across preamble windows and so survive the consistency vote. Fitting and
// subtracting candidates strongest-first with the exact two-segment model
// makes such ghosts collapse: whatever explained energy remains for a
// candidate after the stronger ones are removed is genuine.
func (d *Decoder) validateCandidates(wins [][]complex128, coarse []float64) []float64 {
	if len(coarse) <= 1 {
		return coarse
	}
	// Use up to three windows spread across the preamble for the vote.
	probe := []int{0, len(wins) / 2, len(wins) - 1}
	power := f64Buf(&d.powerBuf, len(coarse))
	for i := range power {
		power[i] = 0
	}
	for _, w := range probe {
		resid := c128Buf(&d.residBuf, d.n)
		copy(resid, wins[w])
		for i, f := range coarse {
			// The coarse peak position is biased by the candidate's own
			// segment structure; refine it so the subtraction is complete
			// enough (< -25 dB residue) for ghosts to collapse.
			fRef, h1, h2, i0 := d.segmentFitRefined(resid, f)
			p1 := real(h1)*real(h1) + imag(h1)*imag(h1)
			p2 := real(h2)*real(h2) + imag(h2)*imag(h2)
			power[i] += (p1*float64(i0) + p2*float64(d.n-i0)) / float64(d.n)
			d.subtractSegments(resid, fRef, h1, h2, i0)
		}
	}
	floor := power[0] * math.Pow(10, -d.cfg.TotalDynamicRangeDB/10)
	// Ghosts of the strongest user collapse by orders of magnitude once it
	// is subtracted; real users within the phase's dynamic range do not.
	relCut := math.Pow(10, -(d.cfg.DynamicRangeDB+6)/10)
	out := coarse[:0]
	for i, f := range coarse {
		if i > 0 && (power[i] < floor || power[i] < power[0]*relCut) {
			continue
		}
		out = append(out, f)
	}
	return out
}

// subtractUsers removes every estimated user's reconstruction from each
// dechirped preamble window. A fractionally-delayed chirp is not a pure tone
// after dechirping: the transmitter's symbol boundary falls inside the
// receiver window and introduces a constant phase jump of 2π·frac(δ) there,
// splitting the window into two tone segments at the same frequency. A
// single-tone subtraction would leave ~|1−e^{j2πfrac(δ)}|²·L/N of the user's
// energy behind — enough for its broad sinc to masquerade as ghost users in
// the next SIC phase. We therefore fit a two-segment model per user (two
// complex gains around an estimated boundary) and subtract that, iterating
// users so each fit sees the others removed.
func (d *Decoder) subtractUsers(wins [][]complex128, users []userEstimate) {
	for _, dech := range wins {
		if cap(d.segModels) < len(users) {
			d.segModels = make([]segModel, len(users))
		}
		models := d.segModels[:len(users)]
		// Initialize from a joint single-tone fit.
		offs := f64Buf(&d.offsBuf, len(users))
		for i, u := range users {
			offs[i] = u.offset
		}
		hs := d.fitChannels(dech, offs)
		for i := range models {
			models[i] = segModel{f: offs[i], h1: hs[i], h2: hs[i], i0: 0}
		}
		residual := c128Buf(&d.residBuf, len(dech))
		copy(residual, dech)
		for i := range models {
			d.subtractSegments(residual, models[i].f, models[i].h1, models[i].h2, models[i].i0)
		}
		// Two refinement sweeps: re-fit each user against the signal with
		// all other users removed.
		for sweep := 0; sweep < 2; sweep++ {
			for i := range models {
				// Add this user's current model back.
				d.subtractSegments(residual, models[i].f, -models[i].h1, -models[i].h2, models[i].i0)
				h1, h2, i0 := d.segmentFit(residual, models[i].f/float64(d.n))
				models[i].h1, models[i].h2, models[i].i0 = h1, h2, i0
				d.subtractSegments(residual, models[i].f, h1, h2, i0)
			}
		}
		copy(dech, residual)
	}
}

// segmentFitRefined golden-searches the tone frequency within ±0.5 bin of
// fBins for the two-segment fit that explains the most energy, returning the
// refined frequency and its fit.
func (d *Decoder) segmentFitRefined(x []complex128, fBins float64) (float64, complex128, complex128, int) {
	sp := mStageResidual.Start()
	defer sp.Stop()
	explained := func(f float64) float64 {
		h1, h2, i0 := d.segmentFit(x, f/float64(d.n))
		p1 := real(h1)*real(h1) + imag(h1)*imag(h1)
		p2 := real(h2)*real(h2) + imag(h2)*imag(h2)
		return p1*float64(i0) + p2*float64(d.n-i0)
	}
	const phi = 0.6180339887498949
	a, b := fBins-0.5, fBins+0.5
	x1 := b - phi*(b-a)
	x2 := a + phi*(b-a)
	f1, f2 := explained(x1), explained(x2)
	for i := 0; i < d.cfg.FineIters; i++ {
		if f1 > f2 {
			b, x2, f2 = x2, x1, f1
			x1 = b - phi*(b-a)
			f1 = explained(x1)
		} else {
			a, x1, f1 = x1, x2, f2
			x2 = a + phi*(b-a)
			f2 = explained(x2)
		}
	}
	best := (a + b) / 2
	h1, h2, i0 := d.segmentFit(x, best/float64(d.n))
	return best, h1, h2, i0
}

// segmentFit fits the two-segment tone model h₁·e^{j2πfn} (n < i0) plus
// h₂·e^{j2πfn} (n >= i0) to x, choosing the boundary i0 that maximizes the
// explained energy. Thanks to prefix sums the search over all boundaries is
// O(len(x)). f is in cycles per sample. The prefix-sum buffer and the
// reciprocal table persist on the decoder — this is the single hottest
// routine of a decode.
func (d *Decoder) segmentFit(x []complex128, f float64) (h1, h2 complex128, i0 int) {
	n := len(x)
	// prefix[i] = Σ_{k<i} x[k]·e^{-j2πfk}
	prefix := c128Buf(&d.prefixBuf, n+1)
	prefix[0] = 0
	r := newRotator(-f, 0)
	for k := 0; k < n; k++ {
		prefix[k+1] = prefix[k] + x[k]*r.next()
	}
	recip := d.reciprocals(n)
	total := prefix[n]
	best, bestScore := 0, math.Inf(-1)
	for i := 0; i <= n; i++ {
		var score float64
		if i > 0 {
			p := prefix[i]
			score += (real(p)*real(p) + imag(p)*imag(p)) * recip[i]
		}
		if i < n {
			s := total - prefix[i]
			score += (real(s)*real(s) + imag(s)*imag(s)) * recip[n-i]
		}
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	i0 = best
	if i0 > 0 {
		h1 = prefix[i0] / complex(float64(i0), 0)
	}
	if i0 < n {
		h2 = (total - prefix[i0]) / complex(float64(n-i0), 0)
	}
	return h1, h2, i0
}

// reciprocals returns the table 1/i for i in [0, n] (entry 0 unused),
// rebuilt only when the window length changes.
func (d *Decoder) reciprocals(n int) []float64 {
	if len(d.recip) != n+1 {
		recip := f64Buf(&d.recip, n+1)
		for i := 1; i <= n; i++ {
			recip[i] = 1 / float64(i)
		}
	}
	return d.recip
}

// subtractSegments removes the two-segment tone model from x in place;
// negated gains re-add it. f is in bins; the boundary index splits the h1
// and h2 regions.
func (d *Decoder) subtractSegments(x []complex128, fBins float64, h1, h2 complex128, i0 int) {
	r := newRotator(fBins/float64(d.n), 0)
	for i := range x {
		tone := r.next()
		if i < i0 {
			x[i] -= h1 * tone
		} else {
			x[i] -= h2 * tone
		}
	}
}

// subtractTone removes h·e^{j2πfn} from x in place (f in cycles/sample);
// a negated h re-adds it.
func subtractTone(x []complex128, f float64, h complex128) {
	r := newRotator(f, 0)
	for i := range x {
		x[i] -= h * r.next()
	}
}

// fitChannels solves the least-squares channel fit of Eqn. 2 for the given
// offsets (in bins) against one dechirped window. The returned slice aliases
// decoder-owned workspace storage and is valid until the next fitChannels /
// fitSegments call; every call site consumes or copies the gains before then.
func (d *Decoder) fitChannels(dech []complex128, offsets []float64) []complex128 {
	k := len(offsets)
	if k == 0 {
		return nil
	}
	e := d.lsWS.DesignMatrix(d.n, k)
	for j, f := range offsets {
		r := newRotator(f/float64(d.n), 0)
		for i := 0; i < d.n; i++ {
			e.Set(i, j, r.next())
		}
	}
	hs, err := d.lsWS.LeastSquaresInto(e, dech)
	if err != nil {
		// Nearly identical offsets: fall back to independent matched
		// filters; leakage stays, but decoding can proceed.
		hs = c128Buf(&d.hsFallback, k)
		for j, f := range offsets {
			hs[j] = matchedFilter(dech, f/float64(d.n))
		}
	}
	return hs
}

// matchedFilter correlates x with a unit tone at f cycles/sample.
func matchedFilter(x []complex128, f float64) complex128 {
	r := newRotator(-f, 0)
	var sum complex128
	for _, v := range x {
		sum += v * r.next()
	}
	return sum / complex(float64(len(x)), 0)
}

// refineOffsets refines each user's offset to a small fraction of a bin by
// alternating per-user two-segment fits against the residual with all other
// users subtracted (the leakage modelling of Sec. 5.1, extended with the
// segment split a fractional timing offset imposes), golden-searching each
// user's frequency within ±0.5 bin of its coarse estimate. It returns the
// refined offsets, each user's dominant-segment channel, and each user's
// estimated segment boundary (the sample index within the window where its
// symbol edge falls). All three returned slices are decoder-owned scratch,
// valid until the next refineOffsets call; coarse is not modified.
func (d *Decoder) refineOffsets(dech []complex128, coarse []float64) ([]float64, []complex128, []int) {
	k := len(coarse)
	offs := f64Buf(&d.offsBuf, k)
	copy(offs, coarse)
	if cap(d.segModels) < k {
		d.segModels = make([]segModel, k)
	}
	models := d.segModels[:k]
	joint := d.fitChannels(dech, offs)
	residual := c128Buf(&d.residBuf, len(dech))
	copy(residual, dech)
	for i := 0; i < k; i++ {
		models[i] = segModel{h1: joint[i], h2: joint[i], i0: 0}
		d.subtractSegments(residual, offs[i], joint[i], joint[i], 0)
	}
	const sweeps = 2
	for s := 0; s < sweeps; s++ {
		for i := 0; i < k; i++ {
			d.subtractSegments(residual, offs[i], -models[i].h1, -models[i].h2, models[i].i0)
			f, h1, h2, i0 := d.segmentFitRefined(residual, offs[i])
			offs[i] = f
			models[i] = segModel{h1: h1, h2: h2, i0: i0}
			d.subtractSegments(residual, f, h1, h2, i0)
		}
	}
	hs := c128Buf(&d.hsBuf, k)
	i0s := intBuf(&d.i0sBuf, k)
	for i := 0; i < k; i++ {
		// Report the longer segment's channel: it carries the symbol
		// aligned with this window.
		if models[i].i0 > d.n/2 {
			hs[i] = models[i].h1
		} else {
			hs[i] = models[i].h2
		}
		i0s[i] = models[i].i0
	}
	return offs, hs, i0s
}

// circularMean averages angles expressed as bin positions on a circle of the
// given period.
func circularMean(bins []float64, period float64) float64 {
	if len(bins) == 0 {
		return 0
	}
	var sx, sy float64
	for _, b := range bins {
		s, c := math.Sincos(2 * math.Pi * b / period)
		sx += c
		sy += s
	}
	return circularMeanFromSums(sx, sy, period)
}

// circularMeanFromSums finishes a circular mean from accumulated Σcos/Σsin.
// Feeding it sums accumulated in element order reproduces circularMean
// bit-for-bit.
func circularMeanFromSums(sx, sy, period float64) float64 {
	ang := math.Atan2(sy, sx)
	if ang < 0 {
		ang += 2 * math.Pi
	}
	return ang / (2 * math.Pi) * period
}
