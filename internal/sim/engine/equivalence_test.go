package engine

import (
	"context"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"choir/internal/exec"
	"choir/internal/mac"
	"choir/internal/sim"
)

// randomConfig draws one small scenario from the equivalence property's
// search space: both schemes, slotted and unslotted, empty through
// saturated traffic, single and multi gateway, tight and loose queues,
// and receivers whose capacity cap does and does not bind.
func randomConfig(rng *rand.Rand) Config {
	cfg := Config{
		Scheme:         mac.SchemeChoir,
		Nodes:          1 + rng.IntN(64),
		Gateways:       []int{1, 1, 3}[rng.IntN(3)],
		Slots:          50 + rng.IntN(350),
		ArrivalPerSlot: []float64{0, 0.05, 0.4, 1}[rng.IntN(4)],
		QueueCap:       []int{2, 64}[rng.IntN(2)],
		PayloadLen:     12,
		Seed:           rng.Uint64(),
	}
	if rng.IntN(2) == 0 {
		cfg.Scheme = mac.SchemeAloha
		cfg.Unslotted = rng.IntN(2) == 0
		cfg.MaxBackoffExp = 1 + rng.IntN(6)
	}
	switch rng.IntN(3) {
	case 0:
		cfg.Receiver = mac.AlohaReceiver{}
	case 1:
		// Generous table: the capacity cap never binds (fast path).
		cfg.Receiver = mac.ModelReceiver{Success: sim.AnalyticChoirTable(64, 0.95, 14)}
	default:
		// Tiny capacity: with saturated Choir traffic the per-group cap
		// binds hard, exercising the cross-shard grant prefix.
		cfg.Receiver = mac.ModelReceiver{Success: []float64{1, 0.9, 0.7, 0.5}, MaxConcurrent: 2}
	}
	// Every ADR policy and the foreign-network interference path (via the
	// plain-SlotSuccess fallback: same-SF foreign counts join contention)
	// are part of the equivalence property's search space too.
	cfg.ADR = ADRPolicy(rng.IntN(int(numADRPolicies)))
	if rng.IntN(2) == 0 {
		cfg.Foreign = []ForeignConfig{{
			Nodes:          rng.IntN(200),
			ArrivalPerSlot: []float64{0, 0.02, 0.3}[rng.IntN(3)],
			ADR:            ADRPolicy(rng.IntN(int(numADRPolicies))),
		}}
		if rng.IntN(2) == 0 {
			cfg.Foreign = append(cfg.Foreign, ForeignConfig{Nodes: 50, ArrivalPerSlot: 0.1})
		}
	}
	return cfg
}

func mustRun(t *testing.T, cfg Config) *Metrics {
	t.Helper()
	m, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Run(%+v): %v", cfg, err)
	}
	return m
}

// TestEventSlotEquivalence is the load-bearing property of the engine:
// across randomized scenarios, the sharded parallel event driver must
// produce METRICS BIT-IDENTICAL to the serial slot-walk reference, for
// every shard count and worker count tried. A single differing field
// means the fast driver is a different model, so the test prints the full
// structs on failure.
func TestEventSlotEquivalence(t *testing.T) {
	trials := 60
	if testing.Short() {
		trials = 15
	}
	rng := rand.New(rand.NewPCG(0xC17E, 0x5CA1E))
	splits := []struct{ shards, workers int }{
		{1, 1}, {2, 1}, {3, 2}, {8, 4},
	}
	for trial := 0; trial < trials; trial++ {
		cfg := randomConfig(rng)
		cfg.Driver = DriverSlot
		want := mustRun(t, cfg)
		for _, sw := range splits {
			got := cfg
			got.Driver = DriverEvent
			got.Shards = sw.shards
			got.Workers = sw.workers
			m := mustRun(t, got)
			if !reflect.DeepEqual(m, want) {
				t.Fatalf("trial %d: event driver (S=%d W=%d) diverged from slot reference\ncfg:   %+v\nslot:  %+v\nevent: %+v",
					trial, sw.shards, sw.workers, cfg, want, m)
			}
		}
	}
}

// TestEventSlotEquivalenceCitySparse holds the event driver to the slot
// reference at city-like sparsity, which randomConfig's small dense cities
// never reach: most first arrivals land past the horizon (so initArrivals
// prunes them without the log), calendar buckets are mostly empty, and
// with a capacity of 1 per group both the fused fast path and the
// tentative/grant path run, the grant clamping shards' successes, under
// foreign interference.
func TestEventSlotEquivalenceCitySparse(t *testing.T) {
	cfg := Config{
		Scheme:         mac.SchemeChoir,
		Driver:         DriverSlot,
		Nodes:          20_000,
		Gateways:       4,
		Slots:          300,
		ArrivalPerSlot: 2e-4,
		PayloadLen:     12,
		Receiver:       mac.ModelReceiver{Success: []float64{1, 0.9, 0.7, 0.5}, MaxConcurrent: 1},
		Foreign:        []ForeignConfig{{Nodes: 20_000, ArrivalPerSlot: 2e-4}},
		Seed:           0x5BA75E,
	}
	want := mustRun(t, cfg)
	if want.Delivered == 0 || want.CollidedTx == 0 || want.ForeignTx == 0 {
		t.Fatalf("degenerate scenario pins nothing: %+v", want)
	}
	if want.Arrivals*4 > int64(cfg.Nodes) {
		t.Fatalf("%d arrivals from %d nodes is not city-sparse", want.Arrivals, cfg.Nodes)
	}
	for _, sw := range []struct{ shards, workers int }{{8, 4}, {1, 1}} {
		got := cfg
		got.Driver = DriverEvent
		got.Shards = sw.shards
		got.Workers = sw.workers
		if m := mustRun(t, got); !reflect.DeepEqual(m, want) {
			t.Fatalf("event driver (S=%d W=%d) diverged from slot reference\nslot:  %+v\nevent: %+v",
				sw.shards, sw.workers, want, m)
		}
	}
}

// TestShardCountDeterminism pins S=1 ≡ S=8 (and W=1 ≡ W=4) directly on
// the event driver at a size where shard boundaries cut through active
// node ranges; it runs under -race in CI, so it also shakes out data
// races between phase fan-outs.
func TestShardCountDeterminism(t *testing.T) {
	cfg := Config{
		Scheme:         mac.SchemeChoir,
		Driver:         DriverEvent,
		Nodes:          300,
		Gateways:       4,
		Slots:          200,
		ArrivalPerSlot: 0.3,
		PayloadLen:     12,
		Receiver:       mac.ModelReceiver{Success: []float64{1, 0.9, 0.7, 0.5, 0.3}, MaxConcurrent: 3},
		Seed:           99,
		Shards:         1,
		Workers:        1,
	}
	want := mustRun(t, cfg)
	for _, shards := range []int{2, 8} {
		for _, workers := range []int{1, 4} {
			cfg.Shards = shards
			cfg.Workers = workers
			if got := mustRun(t, cfg); !reflect.DeepEqual(got, want) {
				t.Fatalf("S=%d W=%d diverged from S=1 W=1:\nwant %+v\ngot  %+v", shards, workers, want, got)
			}
		}
	}
	if want.Delivered == 0 || want.CollidedTx == 0 {
		t.Fatalf("degenerate scenario (delivered=%d collided=%d) pins nothing", want.Delivered, want.CollidedTx)
	}
}

// TestRunConservation pins the model's bookkeeping invariants on a
// mid-size city: every arrival is delivered, dropped, or still queued;
// per-SF splits sum to the totals; failures plus deliveries account for
// every transmission.
func TestRunConservation(t *testing.T) {
	m := mustRun(t, Config{
		Scheme:         mac.SchemeAloha,
		Driver:         DriverEvent,
		Nodes:          2000,
		Gateways:       2,
		Slots:          500,
		ArrivalPerSlot: 0.02,
		Unslotted:      true,
		PayloadLen:     12,
		Receiver:       mac.AlohaReceiver{},
		Seed:           5,
		Shards:         4,
	})
	if m.Delivered+m.Dropped > m.Arrivals {
		t.Errorf("delivered %d + dropped %d > arrivals %d", m.Delivered, m.Dropped, m.Arrivals)
	}
	if m.Delivered+m.CollidedTx != m.Transmissions {
		t.Errorf("delivered %d + collided %d != transmissions %d", m.Delivered, m.CollidedTx, m.Transmissions)
	}
	var sfTx, sfDel, hist int64
	for i := range m.PerSFTx {
		sfTx += m.PerSFTx[i]
		sfDel += m.PerSFDelivered[i]
	}
	for _, h := range m.LatencyHist {
		hist += h
	}
	if sfTx != m.Transmissions || sfDel != m.Delivered || hist != m.Delivered {
		t.Errorf("per-SF/hist splits (tx %d del %d hist %d) don't sum to totals (tx %d del %d)",
			sfTx, sfDel, hist, m.Transmissions, m.Delivered)
	}
	if m.Delivered == 0 || m.Arrivals == 0 {
		t.Errorf("degenerate run: %+v", m)
	}
	if m.Events > int64(m.Nodes)*int64(m.Slots) {
		t.Errorf("events %d exceed nodes×slots", m.Events)
	}
}

// TestSweepSeedDerivation pins the density sweep's seed threading: each
// point's seed is a pure function of its coordinates through
// exec.DeriveSeed, so dropping a point never changes another point's
// result, and the sweep as a whole is reproducible.
func TestSweepSeedDerivation(t *testing.T) {
	base := Config{
		Scheme:         mac.SchemeChoir,
		Gateways:       1,
		Slots:          100,
		ArrivalPerSlot: 0.2,
		PayloadLen:     12,
		Receiver:       mac.ModelReceiver{Success: sim.AnalyticChoirTable(30, 0.95, 14), MaxConcurrent: 30},
		Seed:           42,
	}
	full, err := DensitySweep(context.Background(), base, []int{8, 32, 64})
	if err != nil {
		t.Fatal(err)
	}
	// Each point must equal a standalone run at the derived seed.
	for pi, p := range full {
		cfg := base
		cfg.Nodes = p.Nodes
		cfg.Seed = exec.DeriveSeed(base.Seed, dimSweep, uint64(pi))
		if got := mustRun(t, cfg); !reflect.DeepEqual(got, p.Metrics) {
			t.Fatalf("sweep point %d != standalone run at derived seed", pi)
		}
	}
	fig := SweepFigure(full)
	if len(fig.Series) != 2 || len(fig.Series[0].X) != 3 {
		t.Fatalf("sweep figure shape: %+v", fig)
	}
	var buf strings.Builder
	FprintSweep(&buf, full)
	if !strings.Contains(buf.String(), "goodput") {
		t.Fatalf("sweep table missing header:\n%s", buf.String())
	}
}

// TestValidateRejects pins the config gate, including the descriptive
// Oracle rejection (the genie scheduler needs the global view the sharded
// engine gives up).
func TestValidateRejects(t *testing.T) {
	good := Config{
		Scheme:   mac.SchemeChoir,
		Nodes:    4,
		Gateways: 1,
		Slots:    10,
		Receiver: mac.AlohaReceiver{},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"oracle", func(c *Config) { c.Scheme = mac.SchemeOracle }, "genie"},
		{"nodes", func(c *Config) { c.Nodes = 0 }, "Nodes"},
		{"slots", func(c *Config) { c.Slots = -1 }, "Slots"},
		{"arrival", func(c *Config) { c.ArrivalPerSlot = 1.5 }, "ArrivalPerSlot"},
		{"receiver", func(c *Config) { c.Receiver = nil }, "Receiver"},
		{"driver", func(c *Config) { c.Driver = Driver(7) }, "driver"},
		{"shards", func(c *Config) { c.Shards = -2 }, "Shards"},
		{"adr", func(c *Config) { c.ADR = ADRPolicy(9) }, "ADR"},
		{"foreign-nodes", func(c *Config) { c.Foreign = []ForeignConfig{{Nodes: -1}} }, "Foreign[0]"},
		{"foreign-arrival", func(c *Config) { c.Foreign = []ForeignConfig{{Nodes: 1, ArrivalPerSlot: 2}} }, "Foreign[0]"},
		{"foreign-adr", func(c *Config) { c.Foreign = []ForeignConfig{{ADR: ADRPolicy(-1)}} }, "Foreign[0]"},
	}
	for _, tc := range cases {
		cfg := good
		tc.mutate(&cfg)
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate() = %v, want error containing %q", tc.name, err, tc.want)
		}
		if _, err := Run(context.Background(), cfg); err == nil {
			t.Errorf("%s: Run accepted invalid config", tc.name)
		}
	}
	if DriverEvent.String() != "event" || DriverSlot.String() != "slot" {
		t.Errorf("driver strings: %v %v", DriverEvent, DriverSlot)
	}
	if d, err := ParseDriver("slot"); err != nil || d != DriverSlot {
		t.Errorf("ParseDriver(slot) = %v, %v", d, err)
	}
	if _, err := ParseDriver("warp"); err == nil {
		t.Error("ParseDriver accepted garbage")
	}
}
