package choir_test

// Decision-equivalence corpus: seeded synthesized captures across SF7–12,
// 1–10 users, a spread of SNRs and every internal/fault class, decoded with
// DefaultConfig and compared against testdata/decisions.txt. Each line pins
// one capture's decisions — the frame-level error class and, per user, the
// payload and its verdict — and never a float, so an optimization that is
// not bit-exact (a phase rotator in place of per-sample Sincos, say) passes
// exactly when it decides every capture the same way. The IQ is
// regenerated at test time: synthesis is exact, so only decisions are
// stored. Regenerate after an intentional decision change with:
//
//	go test ./internal/choir -run TestDecisionCorpus -update
//
// Under -short only the SF7–9 captures are decoded.

import (
	"bufio"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"choir/internal/choir"
	"choir/internal/fault"
	"choir/internal/lora"
	"choir/internal/sim"
)

// decisionGrid lists, per spreading factor, the user counts and base SNRs
// swept on clean captures, and the user counts every fault class is applied
// at (at faultSNR, once per intensity in faultRates). Higher SFs cost more
// per decode, so their grids are sparser.
var decisionGrid = []struct {
	sf         lora.SpreadingFactor
	users      []int
	snrs       []float64
	faultUsers []int
}{
	{lora.SF7, []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, []float64{0, 8, 18}, []int{1, 3, 6}},
	{lora.SF8, []int{1, 2, 3, 4, 6, 8, 10}, []float64{2, 12}, []int{2, 5}},
	{lora.SF9, []int{1, 2, 4, 7, 10}, []float64{4, 14}, []int{1, 4}},
	{lora.SF10, []int{1, 3, 6, 10}, []float64{6}, []int{2}},
	{lora.SF11, []int{1, 4, 8}, []float64{8}, []int{3}},
	{lora.SF12, []int{1, 5, 10}, []float64{10}, []int{1}},
}

const (
	faultSNR         = 12.0
	decisionPayload  = 4
	decisionSpreadDB = 12.0 // near-far span between a case's strongest and weakest user
)

var faultRates = []float64{0.02, 0.2, 0.5}

// decisionCase is one corpus capture.
type decisionCase struct {
	sf    lora.SpreadingFactor
	users int
	snrDB float64
	class fault.Class
	rate  float64 // 0 = clean capture
}

// id names the case; it is the corpus key and seeds the capture.
func (c decisionCase) id() string {
	f := "clean"
	if c.rate > 0 {
		f = fmt.Sprintf("%s%g", c.class, c.rate)
	}
	return fmt.Sprintf("sf%d-u%d-snr%g-%s", int(c.sf), c.users, c.snrDB, f)
}

func (c decisionCase) seed() uint64 {
	h := fnv.New64a()
	h.Write([]byte(c.id()))
	return h.Sum64()
}

func decisionCases() []decisionCase {
	var out []decisionCase
	for _, g := range decisionGrid {
		for _, u := range g.users {
			for _, snr := range g.snrs {
				out = append(out, decisionCase{sf: g.sf, users: u, snrDB: snr})
			}
		}
		for _, class := range fault.Classes() {
			for _, u := range g.faultUsers {
				for _, r := range faultRates {
					out = append(out, decisionCase{sf: g.sf, users: u, snrDB: faultSNR, class: class, rate: r})
				}
			}
		}
	}
	return out
}

// capture synthesizes the case's IQ: users spread evenly over
// decisionSpreadDB below the base SNR, then the fault, if any.
func (c decisionCase) capture() (lora.Params, []complex128) {
	p := lora.DefaultParams()
	p.SF = c.sf
	snrs := make([]float64, c.users)
	for i := range snrs {
		snrs[i] = c.snrDB
		if c.users > 1 {
			snrs[i] -= decisionSpreadDB * float64(i) / float64(c.users-1)
		}
	}
	seed := c.seed()
	samples, _ := sim.Scenario{Params: p, PayloadLen: decisionPayload, SNRsDB: snrs, Seed: seed}.Synthesize()
	if c.rate > 0 {
		samples = fault.MustNew(c.class, c.rate).Apply(samples, seed^0xFA017)
	}
	return p, samples
}

// decide decodes the case and renders its decision line:
//
//	<id> <frame class> [<payload hex or ->:<verdict>]...
func (c decisionCase) decide() string {
	p, samples := c.capture()
	res, err := choir.MustNew(choir.DefaultConfig(p)).Decode(samples, decisionPayload)
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s", c.id(), frameClass(err))
	if err != nil {
		return b.String()
	}
	for _, u := range res.Users {
		hex := "-"
		if u.Payload != nil {
			hex = fmt.Sprintf("%x", u.Payload)
		}
		fmt.Fprintf(&b, " %s:%s", hex, userVerdict(u))
	}
	return b.String()
}

func frameClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, choir.ErrNoUsers):
		return "no-users"
	case errors.Is(err, choir.ErrBadIQ):
		return "bad-iq"
	case errors.Is(err, choir.ErrSaturated):
		return "saturated"
	case errors.Is(err, lora.ErrShortSignal):
		return "short"
	default:
		return "error"
	}
}

func userVerdict(u *choir.User) string {
	switch {
	case u.Decoded():
		return "ok"
	case errors.Is(u.Err, choir.ErrTrackingLost):
		return "lost"
	case errors.Is(u.Err, lora.ErrCRC):
		return "crc"
	default:
		return "fail"
	}
}

// decideAll decodes cases on GOMAXPROCS workers; lines[i] is cases[i]'s.
func decideAll(cases []decisionCase) []string {
	lines := make([]string, len(cases))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				lines[i] = cases[i].decide()
			}
		}()
	}
	for i := range cases {
		next <- i
	}
	close(next)
	wg.Wait()
	return lines
}

const decisionsHeader = `# Decision-equivalence corpus for internal/choir (see decisions_test.go).
# One capture per line: <case id> <frame class> [<payload hex>:<verdict>]...
# Verdicts: ok, crc (CRC failed), lost (tracking lost), fail (other).
# Regenerate: go test ./internal/choir -run TestDecisionCorpus -update
`

func TestDecisionCorpus(t *testing.T) {
	path := filepath.Join("testdata", "decisions.txt")
	cases := decisionCases()
	if *update {
		lines := decideAll(cases)
		out := decisionsHeader + strings.Join(lines, "\n") + "\n"
		if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d decisions to %s", len(lines), path)
		return
	}

	want := readDecisions(t, path)
	if !testing.Short() && len(want) != len(cases) {
		t.Errorf("%s has %d captures, the corpus defines %d (run with -update after changing the grid)",
			path, len(want), len(cases))
	}
	if testing.Short() {
		kept := cases[:0]
		for _, c := range cases {
			if c.sf <= lora.SF9 {
				kept = append(kept, c)
			}
		}
		cases = kept
	}
	flips := 0
	for i, got := range decideAll(cases) {
		id := cases[i].id()
		w, ok := want[id]
		switch {
		case !ok:
			t.Errorf("%s: missing from %s", id, path)
		case got != w:
			flips++
			t.Errorf("decision flip\n  was: %s\n  now: %s", w, got)
		}
	}
	if flips > 0 {
		t.Errorf("%d of %d captures changed decisions", flips, len(cases))
	}
}

// readDecisions loads the committed corpus keyed by case id.
func readDecisions(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("missing decision corpus (run with -update to generate): %v", err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		id, _, _ := strings.Cut(line, " ")
		if _, dup := out[id]; dup {
			t.Fatalf("%s: duplicate case %s", path, id)
		}
		out[id] = line
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
