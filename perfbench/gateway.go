package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"choir/internal/exec"
	"choir/internal/fault"
	"choir/internal/gateway"
	"choir/internal/lora"
	"choir/internal/sim"
	"choir/internal/trace"
)

// gwFrame is one generated capture: its wire bytes as trace.WriteFramed
// emits them and the payloads its users carried.
type gwFrame struct {
	params   lora.Params
	users    int
	payloads [][]byte
	wire     []byte
	preface  int // wire bytes before the first sample
}

func phy(sf int) lora.Params {
	p := lora.DefaultParams()
	p.SF = lora.SpreadingFactor(sf)
	return p
}

// synthFrame renders one collision of len(snrs) users and frames it.
func synthFrame(p lora.Params, payloadLen int, snrs []float64, seed uint64, inj fault.Injector, faultSeed uint64) (gwFrame, error) {
	sc := sim.Scenario{Params: p, PayloadLen: payloadLen, SNRsDB: snrs, Seed: seed}
	samples, payloads := sc.Synthesize()
	if inj != nil {
		samples = inj.Apply(samples, faultSeed)
	}
	var buf bytes.Buffer
	if err := trace.WriteFramed(&buf, trace.Header{Params: p, PayloadLen: payloadLen}, samples); err != nil {
		return gwFrame{}, fmt.Errorf("framing: %w", err)
	}
	wire := buf.Bytes()
	return gwFrame{
		params: p, users: len(snrs), payloads: payloads,
		wire: wire, preface: 8 + int(binary.LittleEndian.Uint32(wire)),
	}, nil
}

// stratify returns n class indices whose counts follow weights as closely
// as whole numbers allow (largest remainder), in a seeded random order. A
// fixed mix per run keeps the workload's composition out of the run-to-run
// spread; only the frames' contents change with the seed.
func stratify(rng *rand.Rand, weights []float64, n int) []int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	counts := make([]int, len(weights))
	rem := make([]float64, len(weights))
	left := n
	for i, w := range weights {
		exact := w / total * float64(n)
		counts[i] = int(exact)
		rem[i] = exact - float64(counts[i])
		left -= counts[i]
	}
	for ; left > 0; left-- {
		best := 0
		for i := range rem {
			if rem[i] > rem[best] {
				best = i
			}
		}
		counts[best]++
		rem[best] = -1
	}
	out := make([]int, 0, n)
	for i, c := range counts {
		for ; c > 0; c-- {
			out = append(out, i)
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// buildCorpus generates the workload's distinct frames from the seed. Sends
// cycle through them, so the corpus bounds the benchmark's own memory.
func buildCorpus(w gatewayWorkload, seed uint64) ([]gwFrame, error) {
	rng := rand.New(rand.NewPCG(seed, 0xC0A9))
	n := w.CorpusFrames
	sfIdx := stratify(rng, w.SFWeights, n)
	userIdx := stratify(rng, w.UsersWeights, n)
	hit := stratify(rng, []float64{1 - w.InterfererShare, w.InterfererShare}, n)
	inj := fault.MustNew(fault.Interferer, w.InterfererIntensity)
	out := make([]gwFrame, n)
	for i := range out {
		snrs := make([]float64, userIdx[i]+1)
		for u := range snrs {
			snrs[u] = w.SNRdB[0] + rng.Float64()*(w.SNRdB[1]-w.SNRdB[0])
		}
		var in fault.Injector
		if hit[i] == 1 {
			in = inj
		}
		f, err := synthFrame(phy(w.SFs[sfIdx[i]]), w.PayloadLen, snrs,
			exec.DeriveSeed(seed, 1, uint64(i)), in, exec.DeriveSeed(seed, 2, uint64(i)))
		if err != nil {
			return nil, err
		}
		out[i] = f
	}
	return out, nil
}

// warmupFrames is one clean single-user frame per PHY in the mix.
func warmupFrames(w gatewayWorkload, seed uint64) ([]gwFrame, error) {
	var out []gwFrame
	for _, sf := range w.SFs {
		f, err := synthFrame(phy(sf), w.PayloadLen, []float64{15}, exec.DeriveSeed(seed, 3, uint64(sf)), nil, 0)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

// outcomeRec is one terminal outcome and when the benchmark read it.
type outcomeRec struct {
	o  gateway.Outcome
	at time.Time
}

// gwServer is one gateway behind a loopback framed-stream listener, with a
// collector reading every terminal outcome off Outcomes().
type gwServer struct {
	g      *gateway.Gateway
	addr   string
	dir    string
	cancel context.CancelFunc
	served chan error

	mu       sync.Mutex
	outcomes map[uint64]outcomeRec
	dups     []uint64
	done     chan struct{}
}

func gatewayConfig(w gatewayWorkload, dir string, workers int) (gateway.Config, error) {
	gc := w.Gateway
	policy, err := gateway.ParseShedPolicy(gc.Policy)
	if err != nil {
		return gateway.Config{}, err
	}
	return gateway.Config{
		Queue:            gc.Queue,
		Policy:           policy,
		Workers:          workers,
		MaxAttempts:      gc.MaxAttempts,
		BackoffBase:      time.Duration(gc.BackoffMS * float64(time.Millisecond)),
		BreakerThreshold: gc.BreakerThreshold,
		BreakerCooldown:  gc.BreakerCooldown,
		Ladder:           gc.Ladder,
		Seed:             gc.Seed,
		MaxConns:         gc.MaxConns,
		ConnTimeout:      time.Duration(gc.ConnTimeoutS * float64(time.Second)),
		JournalDir:       dir,
		Fsync:            gc.Fsync,
		AdmissionTarget:  time.Duration(gc.AdmissionTargetMS * float64(time.Millisecond)),
	}, nil
}

// startGateway builds a gateway on a fresh journal directory and serves it
// on a loopback listener.
func startGateway(cfg gateway.Config) (*gwServer, error) {
	g, err := gateway.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		g.Drain(context.Background())
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &gwServer{
		g: g, addr: ln.Addr().String(), dir: cfg.JournalDir, cancel: cancel,
		served: make(chan error, 1), outcomes: map[uint64]outcomeRec{}, done: make(chan struct{}),
	}
	go func() { s.served <- gateway.ServeTCPStream(ctx, g, ln) }()
	go func() {
		defer close(s.done)
		for o := range g.Outcomes() {
			at := time.Now()
			s.mu.Lock()
			if _, seen := s.outcomes[o.FrameID]; seen {
				s.dups = append(s.dups, o.FrameID)
			} else {
				s.outcomes[o.FrameID] = outcomeRec{o, at}
			}
			s.mu.Unlock()
		}
	}()
	return s, nil
}

// waitOutcomes waits until every id has its terminal outcome or the
// deadline passes, and returns the ids still missing.
func (s *gwServer) waitOutcomes(ids []uint64, deadline time.Duration) []uint64 {
	end := time.Now().Add(deadline)
	for {
		s.mu.Lock()
		var missing []uint64
		for _, id := range ids {
			if _, ok := s.outcomes[id]; !ok {
				missing = append(missing, id)
			}
		}
		s.mu.Unlock()
		if len(missing) == 0 || time.Now().After(end) {
			return missing
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop drains the gateway, stops the listener and waits for every goroutine
// the server started.
func (s *gwServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.g.Drain(ctx)
	s.cancel()
	if serr := <-s.served; serr != nil && err == nil {
		err = serr
	}
	<-s.done
	os.RemoveAll(s.dir)
	return err
}

// sendRec is the client's view of one frame send.
type sendRec struct {
	start, acked, sent time.Time
	id                 uint64
	accepted, rejected bool
	err                error // transport failure other than a rejection
}

// closedByPeer reports whether err means the gateway closed the connection
// (a rejection at the connection cap), not a generator-side failure.
func closedByPeer(err error) bool {
	return errors.Is(err, syscall.EPIPE) || errors.Is(err, syscall.ECONNRESET) || errors.Is(err, io.EOF)
}

// sendFrame streams one frame over its own connection: the preface, the
// gateway's "accepted <id>" or "error: ..." reply, then the samples.
func sendFrame(addr string, f *gwFrame) (r sendRec) {
	r.start = time.Now()
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		r.err = err
		return r
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(60 * time.Second))
	_, werr := conn.Write(f.wire[:f.preface])
	line, rerr := bufio.NewReader(conn).ReadString('\n')
	r.acked = time.Now()
	switch {
	case strings.HasPrefix(line, "accepted "):
		id, err := strconv.ParseUint(strings.TrimSpace(strings.TrimPrefix(line, "accepted ")), 10, 64)
		if err != nil {
			r.err = fmt.Errorf("bad reply %q", line)
			return r
		}
		r.id, r.accepted = id, true
	case strings.HasPrefix(line, "error"):
		r.rejected = true
		return r
	case werr != nil && closedByPeer(werr), rerr != nil && closedByPeer(rerr):
		r.rejected = true
		return r
	default:
		r.err = fmt.Errorf("no reply: write %v, read %v", werr, rerr)
		return r
	}
	if _, err := conn.Write(f.wire[f.preface:]); err != nil {
		r.err = fmt.Errorf("streaming samples of frame %d: %w", r.id, err)
	}
	r.sent = time.Now()
	return r
}

// gwRun is one complete pass of a gateway workload: set-up, the open-loop
// measured phase, and the output checks.
type gwRun struct {
	setup     []float64 // seconds, one per repeat
	t0        time.Time
	due       []time.Duration
	lag       []time.Duration
	recs      []sendRec
	corpus    []gwFrame
	outcomes  map[uint64]outcomeRec
	stats     gateway.Stats
	warmupIDs []uint64
	problems  []string // accounting violations: the run is not correct
}

func (r *gwRun) frame(i int) *gwFrame { return &r.corpus[i%len(r.corpus)] }

// runGateway sets the gateway up repeats times (keeping the last), offers
// the workload's open-loop load for the given duration, drains, and checks
// that every accepted frame has exactly one outcome.
func runGateway(w gatewayWorkload, corpus, warm []gwFrame, seed uint64, seconds float64, repeats, workers int, scratch string) (*gwRun, error) {
	r := &gwRun{corpus: corpus}
	var srv *gwServer
	for k := 0; k < repeats; k++ {
		dir, err := os.MkdirTemp(scratch, "journal-")
		if err != nil {
			return nil, err
		}
		cfg, err := gatewayConfig(w, dir, workers)
		if err != nil {
			return nil, err
		}
		t := time.Now()
		srv, err = startGateway(cfg)
		if err != nil {
			return nil, err
		}
		ids := make([]uint64, len(warm))
		var wg sync.WaitGroup
		errs := make([]error, len(warm))
		for i := range warm {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				rec := sendFrame(srv.addr, &warm[i])
				if !rec.accepted {
					errs[i] = fmt.Errorf("warm-up frame %d not accepted: %v", i, rec.err)
				}
				ids[i] = rec.id
			}(i)
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			srv.stop()
			return nil, err
		}
		if missing := srv.waitOutcomes(ids, 60*time.Second); len(missing) > 0 {
			srv.stop()
			return nil, fmt.Errorf("warm-up frames %v got no outcome", missing)
		}
		r.setup = append(r.setup, time.Since(t).Seconds())
		r.warmupIDs = ids
		if k < repeats-1 {
			if err := srv.stop(); err != nil {
				return nil, err
			}
		}
	}

	rng := rand.New(rand.NewPCG(seed, 0x5C4ED))
	n := int(math.Round(w.RateFPS * seconds))
	r.due = poissonSchedule(rng, n, time.Duration(seconds*float64(time.Second)))
	r.recs = make([]sendRec, n)
	r.t0, r.lag = openLoop(r.due, workers, func(i int, _ time.Time) {
		r.recs[i] = sendFrame(srv.addr, r.frame(i))
	})

	var accepted []uint64
	for _, rec := range r.recs {
		if rec.accepted {
			accepted = append(accepted, rec.id)
		}
	}
	missing := srv.waitOutcomes(accepted, 120*time.Second)
	if err := srv.stop(); err != nil {
		r.problems = append(r.problems, fmt.Sprintf("drain: %v", err))
	}
	r.outcomes, r.stats = srv.outcomes, srv.g.Stats()
	if len(missing) > 0 {
		r.problems = append(r.problems, fmt.Sprintf("%d accepted frames without an outcome (first %d)", len(missing), missing[0]))
	}
	if len(srv.dups) > 0 {
		r.problems = append(r.problems, fmt.Sprintf("%d duplicate outcomes (first frame %d)", len(srv.dups), srv.dups[0]))
	}
	known := map[uint64]bool{}
	for _, id := range append(accepted, r.warmupIDs...) {
		if known[id] {
			r.problems = append(r.problems, fmt.Sprintf("frame ID %d accepted twice", id))
		}
		known[id] = true
	}
	for id := range r.outcomes {
		if !known[id] {
			r.problems = append(r.problems, fmt.Sprintf("outcome for unknown frame %d", id))
		}
	}
	st := r.stats
	if st.Accepted != st.Decoded+st.Failed+st.Shed || st.Accepted != int64(len(known)) {
		r.problems = append(r.problems, fmt.Sprintf("gateway stats %+v do not match %d accepted frames", st, len(known)))
	}
	return r, nil
}

// gwResult is the end-to-end summary of one gwRun.
type gwResult struct {
	sent, decoded, failed, shed, rejected, connErrs, wrongFrames int
	usersSent, usersAccepted, usersRecovered                     int
	latency                                                      dist // ms, accepted frames
	lag                                                          dist // ms
	rx1Met                                                       int
	window                                                       time.Duration
	wrong                                                        []string
}

// rx1 is LoRaWAN's RX1 delay: a class-A downlink must be ready by then.
const rx1 = time.Second

func summarizeGateway(r *gwRun) gwResult {
	var s gwResult
	s.sent = len(r.recs)
	var lat, lag []float64
	last := r.t0
	for i, rec := range r.recs {
		f := r.frame(i)
		s.usersSent += f.users
		lag = append(lag, ms(r.lag[i]))
		switch {
		case rec.err != nil && !rec.accepted:
			s.connErrs++
			continue
		case rec.rejected:
			s.rejected++
			continue
		}
		if rec.err != nil {
			s.connErrs++
		}
		s.usersAccepted += f.users
		oc, ok := r.outcomes[rec.id]
		if !ok {
			continue
		}
		due := r.t0.Add(r.due[i])
		l := oc.at.Sub(due)
		lat = append(lat, ms(l))
		if oc.at.After(last) {
			last = oc.at
		}
		switch oc.o.Kind {
		case gateway.OutcomeDecoded:
			matched, wrong := matchPayloads(f.payloads, oc.o.Payloads)
			s.usersRecovered += matched
			if len(wrong) > 0 {
				s.wrongFrames++
				for _, p := range wrong {
					s.wrong = append(s.wrong, fmt.Sprintf("frame %d: decoded %x matches none of %x", rec.id, p, f.payloads))
				}
				continue
			}
			s.decoded++
			if l <= rx1 {
				s.rx1Met++
			}
		case gateway.OutcomeFailed:
			s.failed++
		case gateway.OutcomeShed:
			s.shed++
		}
	}
	s.latency, s.lag = newDist(lat), newDist(lag)
	s.window = last.Sub(r.t0)
	return s
}

func (s gwResult) goodput() float64 { return ratio(float64(s.decoded), s.window.Seconds()) }

func (s gwResult) failedRatio() float64 {
	return ratio(float64(s.sent-s.decoded), float64(s.sent))
}

func scratchDir() (string, error) {
	dir := filepath.Join(".bench_build", "run")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(dir, "gw-")
}
