// Package engine is the city-scale network simulator: the same slotted MAC
// model as internal/mac, driven event-style over millions of nodes spread
// across a multi-gateway urban grid. Where internal/mac walks every node
// every slot (right for the paper's 2-30 node cells), this engine keeps a
// priority queue of node wake events per spatial shard and only touches
// nodes with work, so a sparse-traffic million-node city costs O(events),
// not O(nodes × slots).
//
// The load-bearing property is determinism by construction: every random
// decision — arrival times, placement, shadowing, per-transmission decode
// success, unslotted-ALOHA overlap, backoff — is a pure function of the run
// seed and the decision's logical coordinates (node ID, slot, draw index)
// via exec.DeriveSeed. No decision reads a shared RNG stream, so the slot
// count of workers, the shard partition, and the driver (serial slot walk
// vs sharded event queue) cannot reorder draws. DriverSlot and DriverEvent
// therefore produce bit-identical Metrics; the equivalence property tests
// pin that, which is what lets the fast driver claim to be the same model
// rather than a lookalike.
package engine

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"choir/internal/channel"
	"choir/internal/ctxutil"
	"choir/internal/exec"
	"choir/internal/lora"
	"choir/internal/mac"
	"choir/internal/sim"
)

// Driver selects how the simulation advances time.
type Driver int

const (
	// DriverEvent is the sharded event-queue driver: per-shard priority
	// queues of node wakes, phases fanned out through exec.Pool. The
	// production driver.
	DriverEvent Driver = iota
	// DriverSlot is the serial reference driver: it walks every slot and
	// scans every node, exactly like internal/mac's loop. It exists so the
	// event driver has an independently-simple implementation of the same
	// model to be equivalence-tested against.
	DriverSlot
)

// String implements fmt.Stringer.
func (d Driver) String() string {
	switch d {
	case DriverEvent:
		return "event"
	case DriverSlot:
		return "slot"
	default:
		return fmt.Sprintf("Driver(%d)", int(d))
	}
}

// ParseDriver maps the -engine flag values to a Driver.
func ParseDriver(s string) (Driver, error) {
	switch s {
	case "event":
		return DriverEvent, nil
	case "slot":
		return DriverSlot, nil
	default:
		return 0, fmt.Errorf("engine: unknown driver %q (want event or slot)", s)
	}
}

// ADRPolicy selects how a node picks its spreading factor and transmit
// power, mirroring LoRaSim's experiment matrix (experiments 0–5): real
// urban deployments differ less in their PHY than in how aggressively each
// node adapts its rate, and the interference sweep compares exactly that.
type ADRPolicy int

const (
	// ADRFastestSNR picks the fastest SF whose demodulation threshold the
	// node's measured (shadowed) SNR clears — LoRaWAN rate adaptation with
	// perfect link measurement, and this engine's original behavior
	// (LoRaSim experiments 2/4). The zero value, so existing configs are
	// unchanged.
	ADRFastestSNR ADRPolicy = iota
	// ADRFixedSF12 pins every node at the slowest, most robust rate
	// (LoRaSim experiment 0): maximum range, worst airtime, and every node
	// in one collision group per gateway.
	ADRFixedSF12
	// ADRDistance picks the SF from the node's distance alone — the median
	// path loss with no shadowing term (LoRaSim experiment 3). Shadowed
	// nodes overshoot: a node whose real SNR falls below its
	// distance-chosen SF's threshold is unreachable, which is exactly the
	// failure mode that separates experiments 3 and 4.
	ADRDistance
	// ADRTxPower is ADRDistance plus transmit-power minimization (LoRaSim
	// experiment 5): the node keeps the distance-chosen SF but transmits at
	// the lowest power in TxPowersDBm whose median SNR still clears the
	// threshold, trading link margin for energy.
	ADRTxPower

	numADRPolicies
)

// String implements fmt.Stringer; the names round-trip through
// ParseADRPolicy.
func (p ADRPolicy) String() string {
	switch p {
	case ADRFastestSNR:
		return "snr"
	case ADRFixedSF12:
		return "sf12"
	case ADRDistance:
		return "distance"
	case ADRTxPower:
		return "power"
	default:
		return fmt.Sprintf("ADRPolicy(%d)", int(p))
	}
}

// ParseADRPolicy inverts ADRPolicy.String.
func ParseADRPolicy(s string) (ADRPolicy, error) {
	for p := ADRFastestSNR; p < numADRPolicies; p++ {
		if s == p.String() {
			return p, nil
		}
	}
	return 0, fmt.Errorf("engine: unknown ADR policy %q (want snr, sf12, distance, or power)", s)
}

// ADRPolicies returns every policy, in declaration order.
func ADRPolicies() []ADRPolicy {
	out := make([]ADRPolicy, numADRPolicies)
	for i := range out {
		out[i] = ADRPolicy(i)
	}
	return out
}

// TxPowersDBm is the candidate transmit-power ladder ADRTxPower chooses
// from (every other policy transmits at the top rung, the paper's 14 dBm
// client power). Indexes into this array are the pwr field of nodeState and
// the second axis of the energy table.
var TxPowersDBm = [5]float64{2, 5, 8, 11, 14}

// defaultPwrIdx is the full-power rung every non-power-optimizing policy
// uses.
const defaultPwrIdx = uint8(len(TxPowersDBm) - 1)

// ForeignConfig describes one co-channel foreign LP-WAN sharing the city:
// its own node population, traffic process, and rate-adaptation policy.
// Foreign nodes are placed uniformly over the same city square, adapt
// against the same gateway grid (co-located deployments, LoRaSim's
// basedist=0 multi-network setup), and contribute interference — they are
// never decoded for us and keep no queues. Their slot-level transmitter
// counts are modeled as a Poisson offered load: each reachable foreign
// node contributes ArrivalPerSlot to its (gateway, SF) group's rate, and
// every contended slot draws the group count from that rate. The
// memorylessness is what lets both drivers evaluate foreign traffic lazily
// — a pure function of (seed, gateway, SF, slot) — without simulating
// foreign queues, so the O(home events) cost model survives.
type ForeignConfig struct {
	// Nodes is the foreign network's population.
	Nodes int
	// ArrivalPerSlot is each foreign node's per-slot transmission
	// probability (offered load, not queue-backed).
	ArrivalPerSlot float64
	// ADR is the foreign network's rate-adaptation policy, fixing each
	// foreign node's SF at init.
	ADR ADRPolicy
}

// ForeignSlotSuccess extends mac.SlotSuccess for interfered slots: the
// per-transmission decode probability may depend not only on the home
// same-group contention k but on the foreign transmitter counts heard at
// the same gateway across every SF (same-SF foreign frames contend,
// cross-SF frames leak through imperfect orthogonality). The capture-effect
// model in internal/sim/interfere implements it; a plain mac.SlotSuccess
// still works with foreign networks — the engine then adds the same-SF
// foreign count to k and ignores cross-SF leakage.
type ForeignSlotSuccess interface {
	mac.SlotSuccess
	// PerTxProbForeign returns the probability that one of k concurrent
	// same-(gateway, SF) home transmissions decodes, given foreign[j]
	// concurrent foreign transmissions at spreading factor SF7+j heard by
	// the same gateway. sfIdx is the home group's SF index (0 = SF7).
	PerTxProbForeign(k int, sfIdx int, foreign *[6]int32) float64
}

// Config parameterizes a city simulation.
type Config struct {
	// Scheme is the MAC under test: SchemeAloha or SchemeChoir.
	// SchemeOracle is rejected — the genie scheduler needs a global view of
	// every queue each slot, which is exactly what a sharded event engine
	// does not have; the paper-figure oracle lives in internal/mac.
	Scheme mac.Scheme
	// Driver selects the time-advance strategy (default DriverEvent).
	Driver Driver
	// Nodes is the number of clients, laid out on a jittered √N×√N grid
	// over the city square.
	Nodes int
	// Gateways is the number of base stations, on their own centered grid.
	// Each node attaches to the nearest gateway. Default 1.
	Gateways int
	// Slots is the simulated horizon in slots.
	Slots int
	// ArrivalPerSlot is each node's per-slot packet generation probability
	// (geometric inter-arrival). 0 disables traffic; 1 saturates.
	ArrivalPerSlot float64
	// QueueCap bounds each node's backlog; arrivals beyond it are dropped
	// (counted). 0 means 64, as in internal/mac.
	QueueCap int
	// MaxBackoffExp caps ALOHA binary exponential backoff at
	// 2^MaxBackoffExp slots (default 8).
	MaxBackoffExp int
	// Unslotted models pure ALOHA's adjacent-slot vulnerability, as in
	// mac.Config.Unslotted. Only meaningful for SchemeAloha.
	Unslotted bool
	// SideM is the city square's side in meters. 0 derives a default that
	// gives every gateway a ~1.6 km cell (the paper's urban single-client
	// range is ~1 km).
	SideM float64
	// PayloadLen is the payload size in bytes (default 12), used for
	// per-SF airtime accounting.
	PayloadLen int
	// SlotSeconds is the wall-clock slot length (default: SF12 airtime at
	// PayloadLen plus 10% guard, so every rate fits in a slot).
	SlotSeconds float64
	// Receiver is the per-(gateway, SF) slot-level PHY: with k concurrent
	// same-gateway same-SF transmissions, each decodes independently with
	// probability Receiver.PerTxProb(k), and at most Receiver.Capacity()
	// decode per group per slot. A Receiver that also implements
	// ForeignSlotSuccess is consulted with the slot's foreign transmitter
	// counts when foreign networks are configured.
	Receiver mac.SlotSuccess
	// ADR selects the home network's rate-adaptation policy (default
	// ADRFastestSNR, the engine's original behavior).
	ADR ADRPolicy
	// Foreign lists the co-channel foreign networks interfering with this
	// one. Empty means the original single-network model, bit-identically.
	Foreign []ForeignConfig
	// Seed drives all randomness through exec.DeriveSeed.
	Seed uint64
	// Shards is the number of spatial node partitions (contiguous ID
	// ranges = horizontal city bands). 0 means 1. Results are identical
	// for every shard count.
	Shards int
	// Workers bounds fan-out concurrency (<=0 uses every CPU). Results are
	// identical for every worker count.
	Workers int
}

// Validate reports the first configuration error.
func (c Config) Validate() error {
	switch {
	case c.Scheme == mac.SchemeOracle:
		return fmt.Errorf("engine: SchemeOracle needs a global genie view and is not supported by the sharded engine; use internal/mac")
	case c.Scheme != mac.SchemeAloha && c.Scheme != mac.SchemeChoir:
		return fmt.Errorf("engine: unknown scheme %d", int(c.Scheme))
	case c.Driver != DriverEvent && c.Driver != DriverSlot:
		return fmt.Errorf("engine: unknown driver %d", int(c.Driver))
	case c.Nodes <= 0:
		return fmt.Errorf("engine: Nodes %d <= 0", c.Nodes)
	case c.Gateways < 0:
		return fmt.Errorf("engine: Gateways %d < 0", c.Gateways)
	case c.Slots <= 0:
		return fmt.Errorf("engine: Slots %d <= 0", c.Slots)
	case c.ArrivalPerSlot < 0 || c.ArrivalPerSlot > 1 || math.IsNaN(c.ArrivalPerSlot):
		return fmt.Errorf("engine: ArrivalPerSlot %g outside [0,1]", c.ArrivalPerSlot)
	case c.QueueCap < 0:
		return fmt.Errorf("engine: QueueCap %d < 0", c.QueueCap)
	case c.MaxBackoffExp < 0 || c.MaxBackoffExp > 30:
		return fmt.Errorf("engine: MaxBackoffExp %d outside [0,30]", c.MaxBackoffExp)
	case c.SideM < 0 || math.IsNaN(c.SideM):
		return fmt.Errorf("engine: SideM %g < 0", c.SideM)
	case c.PayloadLen < 0:
		return fmt.Errorf("engine: PayloadLen %d < 0", c.PayloadLen)
	case c.SlotSeconds < 0 || math.IsNaN(c.SlotSeconds):
		return fmt.Errorf("engine: SlotSeconds %g < 0", c.SlotSeconds)
	case c.Receiver == nil:
		return fmt.Errorf("engine: nil Receiver")
	case c.ADR < ADRFastestSNR || c.ADR >= numADRPolicies:
		return fmt.Errorf("engine: unknown ADR policy %d", int(c.ADR))
	case c.Shards < 0:
		return fmt.Errorf("engine: Shards %d < 0", c.Shards)
	}
	for fi, fn := range c.Foreign {
		switch {
		case fn.Nodes < 0:
			return fmt.Errorf("engine: Foreign[%d].Nodes %d < 0", fi, fn.Nodes)
		case fn.ArrivalPerSlot < 0 || fn.ArrivalPerSlot > 1 || math.IsNaN(fn.ArrivalPerSlot):
			return fmt.Errorf("engine: Foreign[%d].ArrivalPerSlot %g outside [0,1]", fi, fn.ArrivalPerSlot)
		case fn.ADR < ADRFastestSNR || fn.ADR >= numADRPolicies:
			return fmt.Errorf("engine: Foreign[%d]: unknown ADR policy %d", fi, int(fn.ADR))
		}
	}
	return nil
}

// Derived-draw dimension tags. Every random decision in the engine hashes
// (Seed, one tag, stable logical coordinates); the tags keep independent
// decision families from aliasing (DeriveSeed is order-sensitive, so a tag
// prefix fully separates streams).
const (
	dimPos     = 1 // node placement jitter: (tag, node, axis)
	dimShadow  = 2 // log-normal shadowing: (tag, node, draw)
	dimArrival = 3 // geometric inter-arrival gaps: (tag, node, arrivalIdx)
	dimDecode  = 4 // per-transmission decode Bernoulli: (tag, node, slot)
	dimVeto    = 5 // unslotted-ALOHA overlap draws: (tag, node, slot, j)
	dimBackoff = 6 // ALOHA backoff offset: (tag, node, slot)
	dimSweep   = 7 // density-sweep per-point seeds: (tag, point, trial)

	// Foreign-network dimensions. Foreign draws live in their own hash
	// families, so configuring foreign networks can never shift a home
	// node's placement, shadowing, arrival, or decode draws — the
	// zero-foreign transparency test pins that.
	dimForeignPos    = 8  // foreign node placement: (tag, net, node, axis)
	dimForeignShadow = 9  // foreign node shadowing: (tag, net, node)
	dimForeignTx     = 10 // foreign slot counts: (tag, gateway, slot, sfIdx, draw)
)

// unitOf maps a derived hash to a uniform float64 in [0,1), the same
// 53-bit construction math/rand/v2 uses.
func unitOf(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// nodeState is one client's compact MAC state, ~64 bytes: the engine's
// memory is this flat array plus O(scheduled events + shards) — no
// per-node metrics, maps, or pointers (queues allocate only once a node
// actually backlogs).
type nodeState struct {
	queue mac.Queue
	// nextArrival is the slot of the node's next traffic arrival, -1 none.
	nextArrival int64
	// nextTx is the slot of the node's next transmission attempt, -1 idle.
	nextTx int64
	// arrivalIdx counts arrivals drawn so far (the geometric draw index).
	arrivalIdx uint64
	// gw is the attached gateway, valid once sf != 0.
	gw int32
	// sf is the node's rate-adapted spreading factor: 0 = channel state
	// not yet evaluated (lazy), -1 = out of range of every gateway,
	// otherwise 7..12.
	sf         int8
	backoffExp uint8
	// pwr indexes TxPowersDBm: the node's ADR-chosen transmit-power rung.
	pwr uint8
}

// wakeOf returns the node's next wake slot: the earlier of its next
// arrival and next transmission, -1 if neither is scheduled.
func (ns *nodeState) wakeOf() int64 {
	w := ns.nextArrival
	if ns.nextTx >= 0 && (w < 0 || ns.nextTx < w) {
		w = ns.nextTx
	}
	return w
}

// core is the shared model both drivers execute: configuration after
// defaulting, the precomputed topology, the per-dimension hash-chain heads,
// and the flat node-state array.
type core struct {
	cfg       Config
	slots     int64
	queueCap  int
	maxBoExp  uint8
	capacity  int
	unslotted bool
	logq      float64 // ln(1 - ArrivalPerSlot), for geometric gaps
	// uSkip is the arrival uniform above which a node's first gap surely
	// lands at or past the horizon, so initArrivals can prune it without
	// the log: the cut -expm1(Slots·logq) widened by a relative 1e-9, far
	// beyond the few-ulp error of either side. Above 1 (no skip) when
	// traffic is off or saturated, or when the cut is too close to 1.
	uSkip float64

	// Topology: nodes on a jittered grid×grid layout over a sideM square,
	// gateways on their own gwX×gwY grid at cell centers.
	grid       int
	cellM      float64
	sideM      float64
	gwCols     int
	gwRows     int
	gwPosX     []float64
	gwPosY     []float64
	noiseFloor float64
	shadowSig  float64
	pl         channel.PathLossModel

	// energyNJ[sfIdx][pwrIdx] is one transmission's radiated energy in
	// integer nanojoules (airtime × linear milliwatts). Integer so the
	// shard-fold order of Metrics.add can never change the total — float
	// accumulation would break the S=1≡S=8 bit-identity pins.
	energyNJ [6][5]int64

	// Per-dimension chain heads: hX = Mix(Start(seed), dimX), so one draw
	// is one or two more Mix folds — no allocation, no shared stream.
	hPos, hShadow, hArrival, hDecode, hVeto, hBackoff uint64

	// Foreign-network offered load, resolved once at init: foreignRate[gw]
	// holds the summed per-slot transmission rate of every reachable
	// foreign node attached to gw, by SF index. foreignOn gates the whole
	// interference path so zero-foreign configs skip it entirely; frx is
	// the Receiver's ForeignSlotSuccess view, nil when it only implements
	// mac.SlotSuccess.
	hForeignTx  uint64
	foreignRate [][6]float64
	foreignOn   bool
	frx         ForeignSlotSuccess

	nodes []nodeState
}

// newCore applies defaults, precomputes the topology, and allocates the
// node array. cfg must already be validated.
func newCore(cfg Config) *core {
	if cfg.Gateways == 0 {
		cfg.Gateways = 1
	}
	if cfg.QueueCap == 0 {
		cfg.QueueCap = 64
	}
	if cfg.MaxBackoffExp == 0 {
		cfg.MaxBackoffExp = 8
	}
	if cfg.PayloadLen == 0 {
		cfg.PayloadLen = 12
	}
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	if cfg.Shards > cfg.Nodes {
		cfg.Shards = cfg.Nodes
	}
	gwCols := int(math.Ceil(math.Sqrt(float64(cfg.Gateways))))
	gwRows := (cfg.Gateways + gwCols - 1) / gwCols
	if cfg.SideM == 0 {
		// ~1.6 km per gateway cell: the paper's single-client urban range
		// is ~1 km, so the default city is dense enough that most nodes
		// reach a gateway but the far corners need the slow SFs.
		cfg.SideM = 1600 * float64(gwCols)
	}
	if cfg.SlotSeconds == 0 {
		p := sfParams(5) // SF12, the slowest rate
		cfg.SlotSeconds = p.AirTime(cfg.PayloadLen) * 1.1
	}

	c := &core{
		cfg:       cfg,
		slots:     int64(cfg.Slots),
		queueCap:  cfg.QueueCap,
		maxBoExp:  uint8(cfg.MaxBackoffExp),
		capacity:  cfg.Receiver.Capacity(),
		unslotted: cfg.Unslotted && cfg.Scheme == mac.SchemeAloha,
		grid:      int(math.Ceil(math.Sqrt(float64(cfg.Nodes)))),
		sideM:     cfg.SideM,
		gwCols:    gwCols,
		gwRows:    gwRows,
		nodes:     make([]nodeState, cfg.Nodes),
	}
	if c.capacity < 1 {
		c.capacity = 1
	}
	c.uSkip = 2
	if p := cfg.ArrivalPerSlot; p > 0 && p < 1 {
		c.logq = math.Log1p(-p)
		c.uSkip = -math.Expm1(float64(cfg.Slots)*c.logq) * (1 + 1e-9)
	}
	c.cellM = c.sideM / float64(c.grid)
	for g := 0; g < cfg.Gateways; g++ {
		col, row := g%gwCols, g/gwCols
		c.gwPosX = append(c.gwPosX, (float64(col)+0.5)*c.sideM/float64(gwCols))
		c.gwPosY = append(c.gwPosY, (float64(row)+0.5)*c.sideM/float64(gwRows))
	}
	c.pl = sim.UrbanChannel()
	c.noiseFloor = sim.ReceiverConfig().NoiseFloorDBm
	c.shadowSig = c.pl.ShadowSigmaDB
	for si := range c.energyNJ {
		air := sfParams(si).AirTime(cfg.PayloadLen)
		for pi, dbm := range TxPowersDBm {
			// mW × s = mJ; ×1e6 → nJ. Rounded once here, accumulated as
			// integers forever after.
			c.energyNJ[si][pi] = int64(math.Round(air * math.Pow(10, dbm/10) * 1e6))
		}
	}

	h0 := exec.Start(cfg.Seed)
	c.hPos = exec.Mix(h0, dimPos)
	c.hShadow = exec.Mix(h0, dimShadow)
	c.hArrival = exec.Mix(h0, dimArrival)
	c.hDecode = exec.Mix(h0, dimDecode)
	c.hVeto = exec.Mix(h0, dimVeto)
	c.hBackoff = exec.Mix(h0, dimBackoff)
	c.hForeignTx = exec.Mix(h0, dimForeignTx)
	c.initForeign(exec.Mix(h0, dimForeignPos), exec.Mix(h0, dimForeignShadow))
	return c
}

// initForeign resolves every foreign node's channel once — placement,
// shadowing, and its network's ADR choice — and folds the reachable ones
// into per-(gateway, SF) Poisson rates. Foreign nodes keep no queues: their
// slot-level transmitter counts are drawn from these rates on demand, so a
// foreign network adds O(gateways) state, not O(nodes).
func (c *core) initForeign(hFP, hFS uint64) {
	for _, fn := range c.cfg.Foreign {
		if fn.Nodes > 0 && fn.ArrivalPerSlot > 0 {
			c.foreignOn = true
		}
	}
	if !c.foreignOn {
		return
	}
	c.frx, _ = c.cfg.Receiver.(ForeignSlotSuccess)
	c.foreignRate = make([][6]float64, len(c.gwPosX))
	for ni, fn := range c.cfg.Foreign {
		if fn.Nodes <= 0 || fn.ArrivalPerSlot <= 0 {
			continue
		}
		hp := exec.Mix(hFP, uint64(ni))
		hs := exec.Mix(hFS, uint64(ni))
		for j := 0; j < fn.Nodes; j++ {
			hpj := exec.Mix(hp, uint64(j))
			x := unitOf(exec.Mix(hpj, 0)) * c.sideM
			y := unitOf(exec.Mix(hpj, 1)) * c.sideM
			gw, d := c.nearestGW(x, y)
			z := shadowZ(exec.Mix(hs, uint64(j)))
			sf, _, ok := c.adrSelect(fn.ADR, d, z)
			if !ok {
				continue
			}
			c.foreignRate[gw][int(sf)-7] += fn.ArrivalPerSlot
		}
	}
}

// ctxCheckInterval is how many driver iterations (slots for the reference
// driver, active slots for the event driver) pass between context polls,
// mirroring internal/mac's cadence.
const ctxCheckInterval = 256

// newMetrics returns a Metrics with the configuration echoes filled in
// from the defaulted config; drivers accumulate the totals into it.
func (c *core) newMetrics() *Metrics {
	return &Metrics{
		Nodes:       c.cfg.Nodes,
		Gateways:    c.cfg.Gateways,
		Slots:       c.cfg.Slots,
		PayloadLen:  c.cfg.PayloadLen,
		SlotSeconds: c.cfg.SlotSeconds,
	}
}

// arrivalGap draws the geometric number of empty slots before node i's
// arrival number idx. Saturated traffic (p >= 1) is gap 0 with no draw.
func (c *core) arrivalGap(i int32, idx uint64) int64 {
	if c.cfg.ArrivalPerSlot >= 1 {
		return 0
	}
	return c.gapOf(c.arrivalU(i, idx))
}

// arrivalU is the uniform behind node i's arrival gap number idx.
func (c *core) arrivalU(i int32, idx uint64) float64 {
	return unitOf(exec.Mix(exec.Mix(c.hArrival, uint64(i)), idx))
}

// gapOf maps an arrival uniform to its geometric gap:
// floor(ln(1-u)/ln(1-p)), the standard inverse-CDF. Both logs are <= 0,
// so the ratio is a finite non-negative count.
func (c *core) gapOf(u float64) int64 {
	return int64(math.Log1p(-u) / c.logq)
}

// firstGapOf is gapOf for a node's first arrival, except that a uniform
// above uSkip returns the horizon (a pruned wake) without evaluating the
// log. Uniforms at or below uSkip take the exact path, so the result is
// below the horizon exactly when gapOf's is, and then equals it.
func (c *core) firstGapOf(u float64) int64 {
	if u > c.uSkip {
		return c.slots
	}
	return c.gapOf(u)
}

// initArrivals seeds every node's first arrival. With no traffic the whole
// city stays asleep (nextArrival, nextTx both -1 via zero→-1 init). At
// city sparsity most first arrivals land past the horizon; firstGapOf
// prunes those without the log.
func (c *core) initArrivals(i int32) {
	ns := &c.nodes[i]
	ns.nextTx = -1
	switch {
	case c.cfg.ArrivalPerSlot <= 0:
		ns.nextArrival = -1
	case c.cfg.ArrivalPerSlot >= 1:
		ns.nextArrival = 0
	default:
		ns.nextArrival = c.firstGapOf(c.arrivalU(i, 0))
	}
}

// resolveChannel lazily evaluates node i's channel state on first wake:
// position from the jittered grid, nearest gateway, median path loss plus
// deterministic log-normal shadowing, then the configured ADR policy's
// SF/TX-power choice. It returns false — and parks the node forever — when
// the policy's choice cannot reach the gateway. The evaluation is pure in
// (Seed, i), so it never matters which driver, shard, or worker performs
// it.
func (c *core) resolveChannel(ns *nodeState, i int32) bool {
	hp := exec.Mix(c.hPos, uint64(i))
	col, row := int(i)%c.grid, int(i)/c.grid
	x := (float64(col) + unitOf(exec.Mix(hp, 0))) * c.cellM
	y := (float64(row) + unitOf(exec.Mix(hp, 1))) * c.cellM
	gw, d := c.nearestGW(x, y)
	z := shadowZ(exec.Mix(c.hShadow, uint64(i)))
	sf, pwr, ok := c.adrSelect(c.cfg.ADR, d, z)
	if !ok {
		ns.sf = -1
		return false
	}
	ns.sf = sf
	ns.gw = gw
	ns.pwr = pwr
	return true
}

// nearestGW maps a position to its nearest gateway (by grid cell) and the
// distance to it, shared by home and foreign channel resolution.
func (c *core) nearestGW(x, y float64) (int32, float64) {
	gcol := int(x / c.sideM * float64(c.gwCols))
	if gcol >= c.gwCols {
		gcol = c.gwCols - 1
	}
	grow := int(y / c.sideM * float64(c.gwRows))
	if grow >= c.gwRows {
		grow = c.gwRows - 1
	}
	gw := grow*c.gwCols + gcol
	if gw >= len(c.gwPosX) {
		gw = len(c.gwPosX) - 1
	}
	d := math.Hypot(x-c.gwPosX[gw], y-c.gwPosY[gw])
	if d < 1 {
		d = 1
	}
	return int32(gw), d
}

// shadowZ draws a standard normal from the node's shadowing chain head via
// Box-Muller on (1-u1, u2): log1p(-u1) keeps the argument nonzero.
func shadowZ(hs uint64) float64 {
	u1 := unitOf(exec.Mix(hs, 0))
	u2 := unitOf(exec.Mix(hs, 1))
	return math.Sqrt(-2*math.Log1p(-u1)) * math.Cos(2*math.Pi*u2)
}

// adrSelect applies a rate-adaptation policy to a link of distance d with
// shadowing realization z and returns the chosen spreading factor, the
// transmit-power rung, and whether the link closes at that choice. Pure in
// its arguments, so it never matters which driver, shard, or worker (or
// home vs foreign init) evaluates it. The ADRFastestSNR arm reproduces the
// original resolveChannel float operations exactly — the zero-value policy
// is bit-identical to the pre-ADR engine.
func (c *core) adrSelect(policy ADRPolicy, d, z float64) (sf int8, pwr uint8, ok bool) {
	medLoss := c.pl.LossDB(d, nil)
	loss := medLoss + c.shadowSig*z
	snr := sim.ClientPowerDBm - loss - c.noiseFloor
	switch policy {
	case ADRFixedSF12:
		if snr < sim.DemodThresholdDB(lora.SF12)+1 {
			return -1, defaultPwrIdx, false
		}
		return int8(lora.SF12), defaultPwrIdx, true
	case ADRDistance, ADRTxPower:
		// The SF comes from the median (shadowing-blind) link budget; the
		// real, shadowed SNR then has to clear the chosen SF's threshold or
		// the node overshot and cannot be served.
		medSNR := sim.ClientPowerDBm - medLoss - c.noiseFloor
		p, okm := sim.RateForSNR(medSNR)
		if !okm {
			return -1, defaultPwrIdx, false
		}
		thr := sim.DemodThresholdDB(p.SF) + 1
		pwr = defaultPwrIdx
		if policy == ADRTxPower {
			// Lowest rung whose median SNR still clears the threshold; the
			// distance check above guarantees the top rung does.
			for i, dbm := range TxPowersDBm {
				if dbm-medLoss-c.noiseFloor >= thr {
					pwr = uint8(i)
					break
				}
			}
		}
		if TxPowersDBm[pwr]-loss-c.noiseFloor < thr {
			return -1, defaultPwrIdx, false
		}
		return int8(p.SF), pwr, true
	default: // ADRFastestSNR
		p, okf := sim.RateForSNR(snr)
		if !okf {
			return -1, defaultPwrIdx, false
		}
		return int8(p.SF), defaultPwrIdx, true
	}
}

// groupOf returns the node's collision group: transmissions collide only
// within one (gateway, spreading factor) pair — different SFs are
// orthogonal and different gateways hear different cities.
func (c *core) groupOf(ns *nodeState) uint32 {
	return uint32(ns.gw)<<3 | uint32(ns.sf-7)
}

// wakeNode processes node i's wake at slot s — the lazy channel
// evaluation, a due arrival if any, and the tx-due decision — and reports
// whether the node transmits this slot. Both drivers call exactly this.
func (c *core) wakeNode(ns *nodeState, i int32, s int64, m *Metrics) bool {
	if ns.sf == 0 && !c.resolveChannel(ns, i) {
		m.Unreachable++
		ns.nextArrival = -1
		ns.nextTx = -1
		return false
	}
	if ns.nextArrival == s {
		m.Arrivals++
		if ns.queue.Len() < c.queueCap {
			ns.queue.Push(mac.Packet{ArrivalSlot: int(s)})
			if ns.nextTx < 0 {
				// An idle node answers a fresh arrival in the same slot.
				ns.nextTx = s
			}
		} else {
			m.Dropped++
		}
		ns.arrivalIdx++
		ns.nextArrival = s + 1 + c.arrivalGap(i, ns.arrivalIdx)
	}
	return ns.nextTx == s && ns.queue.Len() > 0
}

// decodeDraw is the per-transmission Bernoulli draw: with k concurrent
// same-group transmissions each decodes with probability PerTxProb(k).
func (c *core) decodeDraw(i int32, s int64) float64 {
	return unitOf(exec.Mix(exec.Mix(c.hDecode, uint64(i)), uint64(s)))
}

// vetoed applies the unslotted-ALOHA adjacent-slot overlap model to a
// decoded transmission, mirroring mac.RunCtx: each of the previous slot's
// prevK same-group transmissions (standing in for both neighbours, hence
// 2×) overlaps and destroys the packet with probability 1/2.
func (c *core) vetoed(i int32, s int64, prevK int32) bool {
	if !c.unslotted || prevK <= 0 {
		return false
	}
	h := exec.Mix(exec.Mix(c.hVeto, uint64(i)), uint64(s))
	for j := int32(0); j < 2*prevK; j++ {
		if unitOf(exec.Mix(h, uint64(j))) < 0.5 {
			return true
		}
	}
	return false
}

// finishTx settles node i's transmission at slot s — delivery accounting
// or the scheme's retry policy — and schedules the node's next attempt.
func (c *core) finishTx(ns *nodeState, i int32, s int64, delivered bool, m *Metrics) {
	sfIdx := int(ns.sf) - 7
	m.Transmissions++
	m.PerSFTx[sfIdx]++
	m.TxEnergyNJ += c.energyNJ[sfIdx][ns.pwr]
	if delivered {
		p := ns.queue.Pop()
		lat := s - int64(p.ArrivalSlot) + 1
		m.Delivered++
		m.PerSFDelivered[sfIdx]++
		m.TotalLatencySlots += lat
		m.LatencyHist[latencyBucket(lat)]++
		ns.backoffExp = 0
		if ns.queue.Len() > 0 {
			ns.nextTx = s + 1
		} else {
			ns.nextTx = -1
		}
		return
	}
	m.CollidedTx++
	if c.cfg.Scheme == mac.SchemeAloha {
		// Binary exponential backoff; the window is a power of two, so
		// masking the derived hash is exactly uniform.
		if ns.backoffExp < c.maxBoExp {
			ns.backoffExp++
		}
		w := uint64(1) << ns.backoffExp
		off := exec.Mix(exec.Mix(c.hBackoff, uint64(i)), uint64(s)) & (w - 1)
		ns.nextTx = s + 1 + int64(off)
	} else {
		// Choir: every backlogged node answers the next beacon.
		ns.nextTx = s + 1
	}
}

// latencyBucket maps a delivery latency (in slots, >= 1) to its
// power-of-two histogram bucket, saturating in the last one.
func latencyBucket(lat int64) int {
	b := bits.Len64(uint64(lat)) - 1
	if b >= len(Metrics{}.LatencyHist) {
		b = len(Metrics{}.LatencyHist) - 1
	}
	return b
}

// sfParams returns the PHY configuration for spreading-factor index
// 0..5 (SF7..SF12), with the code rates LoRaWAN rate adaptation picks
// (mirroring sim.RateForSNR).
func sfParams(sfIdx int) lora.Params {
	p := lora.DefaultParams()
	p.SF = lora.SF7 + lora.SpreadingFactor(sfIdx)
	if p.SF <= lora.SF8 {
		p.CR = lora.CR46
	} else {
		p.CR = lora.CR48
	}
	return p
}

// Run simulates the configured city and returns its metrics. Results are
// a pure function of Config minus {Driver, Shards, Workers}: the
// equivalence tests pin that both drivers at any shard/worker split return
// bit-identical Metrics.
func Run(ctx context.Context, cfg Config) (*Metrics, error) {
	if cfg.Gateways == 0 {
		cfg.Gateways = 1
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ctx = ctxutil.Background(ctx)
	c := newCore(cfg)
	var (
		m   *Metrics
		err error
		lp  liveProgress
	)
	switch cfg.Driver {
	case DriverSlot:
		m, err = runSlot(ctx, c, &lp)
	default:
		m, err = runEvent(ctx, c, &lp)
	}
	if err != nil {
		// Retract whatever the live stream published: a canceled run's net
		// accounting is zero, so a retry cannot double-count.
		lp.rollback()
		return nil, err
	}
	lp.finish(m)
	return m, nil
}
