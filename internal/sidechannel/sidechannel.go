// Package sidechannel simulates the physical leakage channels Decepticon
// composes (paper §3, §6.1):
//
//   - a bus-probe address map: PCIe/memory-bus snooping reveals where each
//     weight tensor lives in device memory, so the attacker can address
//     individual weights;
//   - a rowhammer bit-read oracle in the style of DeepSteal [40]: reading
//     one DRAM-resident bit costs thousands of hammering rounds, which is
//     precisely why the paper's selective extraction — checking only the
//     few bits fine-tuning can have changed — is the difference between an
//     impractical and a practical attack on large models.
//
// The oracle returns ground-truth victim bits (the simulation is exact)
// while metering the cost the attacker would pay.
package sidechannel

import (
	"context"
	"fmt"
	"sort"

	"decepticon/internal/ieee754"
	"decepticon/internal/obs"
	"decepticon/internal/rng"
	"decepticon/internal/transformer"
)

// HammerRoundsPerBit is the simulated cost of one bit read. DeepSteal
// reports needing thousands of rowhammer rounds to recover part of a
// weight; 2048 rounds per recovered bit is the cost model used for every
// efficiency number in EXPERIMENTS.md.
const HammerRoundsPerBit = 2048

// Region is one weight tensor's placement in victim device memory.
type Region struct {
	Param string // tensor name (transformer.NamedParam.Name)
	Layer int
	Base  uintptr // simulated device address
	Count int     // number of float32 weights
}

// AddressMap is what bus probing gives the attacker: tensor placements in
// device memory, in allocation order.
type AddressMap struct {
	Regions []Region
}

// MapModel lays the victim's tensors out contiguously (16-byte aligned),
// as a framework allocator would, and returns the observed address map.
func MapModel(m *transformer.Model) *AddressMap {
	const base = uintptr(0x7f0000000000)
	addr := base
	am := &AddressMap{}
	for _, p := range m.Params() {
		n := len(p.Value.Data)
		am.Regions = append(am.Regions, Region{
			Param: p.Name, Layer: p.Layer, Base: addr, Count: n,
		})
		addr += uintptr(n*4+15) &^ 15
	}
	return am
}

// RegionOf returns the region holding a parameter.
func (am *AddressMap) RegionOf(param string) (Region, bool) {
	for _, r := range am.Regions {
		if r.Param == param {
			return r, true
		}
	}
	return Region{}, false
}

// Locate resolves a device address to (param, weight index).
func (am *AddressMap) Locate(addr uintptr) (string, int, bool) {
	i := sort.Search(len(am.Regions), func(i int) bool {
		return am.Regions[i].Base > addr
	})
	if i == 0 {
		return "", 0, false
	}
	r := am.Regions[i-1]
	off := int(addr-r.Base) / 4
	if off >= r.Count {
		return "", 0, false
	}
	return r.Param, off, true
}

// Oracle is the rowhammer bit-read channel over one victim model.
type Oracle struct {
	weights map[string][]float32
	// BitReads is the number of physical bit reads performed so far —
	// every oracle access counts, including majority-vote repeats, which
	// is what distinguishes it from the extraction's logical counters.
	// int64: at 2048 hammer rounds per bit, a realistic model size with
	// ReadRepeats overflows 32-bit int arithmetic.
	BitReads int64
	// BitErrorRate, when positive, makes each read return a flipped bit
	// with this probability — rowhammer reads are not perfectly reliable,
	// and a robust extraction must tolerate occasional wrong bits.
	BitErrorRate float64
	// FaultedReads counts read attempts that failed with a ReadFault.
	// Faulted attempts are metered separately: they advance the channel
	// clock but never BitReads — the attacker pays the attempt, not a
	// recovered bit.
	FaultedReads int64
	// FlipsInjected counts noisy reads that returned a wrong bit (the
	// field mirror of the sidechannel.bit_flips_injected counter, needed
	// to restore the counter across a checkpoint).
	FlipsInjected int64

	noise  *rng.RNG
	faults *faultState
	clock  int64 // simulated rounds: one per read attempt, plus backoff
	ctx    context.Context

	// Pre-resolved obs handles (nil-safe no-ops until SetObs): ReadBit is
	// the hottest metered path in the repo, so the name→counter lookup
	// happens once, not per read.
	cBitReads *obs.Counter
	cHammer   *obs.Counter
	cFlips    *obs.Counter
	cFaults   *obs.Counter
	flight    *obs.FlightRecorder
}

// NewOracle wraps a victim model. The oracle holds references to the
// victim's live weights; the attacker never sees them except one metered
// bit at a time.
func NewOracle(victim *transformer.Model) *Oracle {
	o := &Oracle{weights: make(map[string][]float32), noise: rng.New(0x5eed)}
	for _, p := range victim.Params() {
		o.weights[p.Name] = p.Value.Data
	}
	return o
}

// SetNoise configures an unreliable channel: reads flip with probability
// rate, deterministically per seed.
func (o *Oracle) SetNoise(rate float64, seed uint64) {
	o.BitErrorRate = rate
	o.noise = rng.New(seed)
}

// SetFaultPlan arms a structured-fault campaign (see FaultPlan). A nil
// plan restores the fault-free channel. Arming a plan also starts the
// channel's simulated clock, which outages are windows over.
func (o *Oracle) SetFaultPlan(p *FaultPlan) {
	if p == nil {
		o.faults = nil
		return
	}
	o.faults = newFaultState(*p)
}

// SetObs mirrors the oracle's meters into a registry:
//
//	sidechannel.bit_reads_physical  every metered bit read (incl. repeats)
//	sidechannel.hammer_rounds       bit reads × HammerRoundsPerBit
//	sidechannel.bit_flips_injected  noisy reads that returned a wrong bit
//	sidechannel.read_faults         attempts that failed with a ReadFault
//
// A nil registry detaches the oracle again. Counter handles are resolved
// here once so per-read cost stays a couple of atomic adds. When the
// registry carries a flight recorder, every channel fault is also noted
// there — the black-box record of what the channel did right before an
// extraction died.
func (o *Oracle) SetObs(r *obs.Registry) {
	o.cBitReads = r.Counter("sidechannel.bit_reads_physical")
	o.cHammer = r.Counter("sidechannel.hammer_rounds")
	o.cFlips = r.Counter("sidechannel.bit_flips_injected")
	o.cFaults = r.Counter("sidechannel.read_faults")
	o.flight = r.Flight()
}

// Bind attaches a context to the channel: once ctx is cancelled (or its
// deadline passes), every subsequent ReadBit fails with the context's
// error *before* any meter is charged or the clock advanced — an aborted
// read costs nothing, so the channel position stays exactly where the
// last completed read left it and a checkpointed extraction resumes
// byte-identically. A nil ctx unbinds.
func (o *Oracle) Bind(ctx context.Context) { o.ctx = ctx }

// AdvanceClock moves the channel's simulated clock forward n rounds
// without reading — how a caller spends backoff time waiting out an
// outage or a transient run. A no-op on a fault-free channel (the clock
// only gates fault windows).
func (o *Oracle) AdvanceClock(n int64) {
	if n > 0 {
		o.clock += n
	}
}

// Clock returns the channel's simulated round counter.
func (o *Oracle) Clock() int64 { return o.clock }

// ChannelState is the serializable position of the channel: the meters,
// the clock, and the noise stream. Together with a FaultPlan (which is
// pure configuration) it lets a checkpointed extraction resume with the
// channel exactly where it stopped — same future noise, same future
// fault windows, reconciling meters.
type ChannelState struct {
	BitReads      int64
	FaultedReads  int64
	FlipsInjected int64
	Clock         int64
	NoiseState    uint64
}

// State snapshots the channel position for a checkpoint.
func (o *Oracle) State() ChannelState {
	return ChannelState{
		BitReads:      o.BitReads,
		FaultedReads:  o.FaultedReads,
		FlipsInjected: o.FlipsInjected,
		Clock:         o.clock,
		NoiseState:    o.noise.State(),
	}
}

// RestoreState rewinds the channel to a checkpointed position. The
// already-paid meters are re-applied to the attached obs counters (call
// SetObs first), so a resumed run's registry reconciles byte-for-byte
// with an uninterrupted one. The caller must re-arm the same FaultPlan
// and noise seed it used originally; only their *position* is restored
// here.
func (o *Oracle) RestoreState(s ChannelState) {
	o.BitReads = s.BitReads
	o.FaultedReads = s.FaultedReads
	o.FlipsInjected = s.FlipsInjected
	o.clock = s.Clock
	o.noise = rng.FromState(s.NoiseState)
	o.cBitReads.Add(s.BitReads)
	o.cHammer.Add(s.BitReads * HammerRoundsPerBit)
	o.cFlips.Add(s.FlipsInjected)
	o.cFaults.Add(s.FaultedReads)
}

// trueBit returns the ground-truth bit without cost or noise; it backs
// the metered reads.
func (o *Oracle) trueBit(param string, idx, bit int) (int, error) {
	w, err := o.PeekWord(param, idx)
	if err != nil {
		return 0, err
	}
	return ieee754.Bit(w, bit), nil
}

// PeekWord returns a weight's exact value without cost or noise. It is
// simulation-side ground truth for metrics — never part of the attacker's
// channel. An unknown tensor or out-of-range index is attacker-facing
// input (a corrupt or adversarial address map), so it surfaces as an
// error, not a panic.
func (o *Oracle) PeekWord(param string, idx int) (float32, error) {
	w, ok := o.weights[param]
	if !ok {
		return 0, fmt.Errorf("sidechannel: unknown tensor %q", param)
	}
	if idx < 0 || idx >= len(w) {
		return 0, fmt.Errorf("sidechannel: weight index %d out of range for %q (size %d)", idx, param, len(w))
	}
	return w[idx], nil
}

// ReadBit reads raw bit `bit` (0 = LSB, 31 = sign) of weight idx in the
// named tensor, incrementing the cost meter. With a configured
// BitErrorRate the result is occasionally wrong. Under a FaultPlan the
// attempt may fail with a *ReadFault — metered as a faulted attempt, not
// a bit read — whose Retryable field tells the caller whether backing
// off and retrying can succeed. A read through a bad address map returns
// an error without charging any meter.
func (o *Oracle) ReadBit(param string, idx, bit int) (int, error) {
	b, err := o.trueBit(param, idx, bit)
	if err != nil {
		return 0, err
	}
	// A bound, dead context aborts before the clock or any meter moves:
	// the attempt never happened as far as the channel is concerned.
	if o.ctx != nil {
		if cerr := o.ctx.Err(); cerr != nil {
			return 0, cerr
		}
	}
	// Every attempt advances the simulated clock, fault plan or not —
	// the clock is what bit-read latency histograms are measured against,
	// so it must tick on clean channels too. (Fault windows see the same
	// increment-then-check order as before.)
	o.clock++
	if o.faults != nil {
		if f := o.faults.check(param, idx, bit, o.clock); f != nil {
			o.FaultedReads++
			o.cFaults.Inc()
			o.flight.Note("fault", f.Kind.String(), map[string]string{
				"param": param,
				"index": fmt.Sprint(idx),
				"bit":   fmt.Sprint(bit),
				"clock": fmt.Sprint(o.clock),
				"retry": fmt.Sprint(f.Retryable),
			})
			return 0, f
		}
	}
	o.BitReads++
	o.cBitReads.Inc()
	o.cHammer.Add(HammerRoundsPerBit)
	if o.BitErrorRate > 0 && o.noise.Float64() < o.BitErrorRate {
		b ^= 1
		o.FlipsInjected++
		o.cFlips.Inc()
	}
	return b, nil
}

// ReadWord reads all 32 bits of one weight (the last-layer full
// extraction), costing 32 bit reads.
func (o *Oracle) ReadWord(param string, idx int) (float32, error) {
	var out float32
	for bit := 0; bit < 32; bit++ {
		b, err := o.ReadBit(param, idx, bit)
		if err != nil {
			return 0, err
		}
		out = ieee754.SetBit(out, bit, b)
	}
	return out, nil
}

// HammerRounds returns the total simulated rowhammer rounds spent.
// int64: realistic models with ReadRepeats push this past 2^31.
func (o *Oracle) HammerRounds() int64 { return o.BitReads * HammerRoundsPerBit }

// Attempts returns every metered oracle access so far — successful bit
// reads plus faulted attempts. This is the quantity read budgets bound
// and the denominator fault-rate estimators divide by.
func (o *Oracle) Attempts() int64 { return o.BitReads + o.FaultedReads }

// TensorSize returns the weight count of a tensor (0 if unknown).
func (o *Oracle) TensorSize(param string) int { return len(o.weights[param]) }
