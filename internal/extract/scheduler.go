// Bit-read scheduling (DESIGN.md §12). Every tensor is extracted by one
// loop over a read plan: a selective tensor's holds exactly Algorithm 1's
// candidate bits (Config.selectBits), the head's every bit (planFull,
// always read under a disabled scheduler). The scheduler decides only the
// plan's order, each read's vote width, and when to stop. Disabled (the
// zero SchedulerConfig), it is Algorithm 1 as printed: index order, every
// bit voted at EffectiveReadRepeats, no early exit. At 2048 hammer rounds
// per physical read that uniformity is the dominant cost, so the enabled
// scheduler re-plans each tensor around where the hammer rounds buy
// information:
//
//   - ordering: candidate fraction bits are read in descending order of
//     expected value correction — place value weighted by how likely the
//     estimated fine-tuning gap (U-shape aware, Config.gap) is to have
//     flipped a bit of that magnitude — so an interrupt or early exit
//     lands after the valuable reads, not after the alphabetically early
//     ones;
//   - adaptive voting: the majority-vote width per bit is derived from the
//     channel's *observed* silent-disagreement rate instead of the global
//     ReadRepeats constant, clamped to the configured width so the
//     scheduler can only ever read fewer physical bits than the baseline;
//     periodic wide probes keep the estimate live once the width drops;
//   - posterior early exit: once enough of a tensor's high-value bits have
//     been read and confidently almost none differ from the pre-trained
//     baseline (a Hoeffding bound on the observed change rate), the
//     remaining — strictly lower-value — planned bits are elided and the
//     baseline bits kept.
//
// Everything is deterministic and worker-count invariant: the plan is a
// pure function of (Config, baseline tensor), and the estimator state is
// serialized into checkpoints so an interrupted-then-resumed run stays
// byte-identical with an uninterrupted one.
package extract

import (
	"cmp"
	"math"
	"math/bits"
	"slices"

	"decepticon/internal/ieee754"
)

// SchedulerConfig tunes the bit-read scheduler. The zero value (Enabled
// == false) is Algorithm 1's own schedule: index order, a fixed vote
// width of EffectiveReadRepeats, no probes and no early exit. Enabling
// with zero knobs applies the defaults below.
type SchedulerConfig struct {
	// Enabled switches on information order, adaptive voting, and
	// posterior early exit.
	Enabled bool
	// ExitChangeRate is the posterior-convergence threshold: a tensor
	// early-exits once the fraction of read bits that differ from the
	// pre-trained baseline is confidently below this (default 0.05).
	ExitChangeRate float64
	// ExitConfidence is the one-sided confidence of the Hoeffding bound
	// behind the early exit (default 0.99).
	ExitConfidence float64
	// MinExitSamples is the minimum number of bits read from a tensor
	// before an early exit may trigger (default 256).
	MinExitSamples int
	// VoteErrorTarget is the residual majority-vote error budget for a
	// bit whose place value equals the full estimated gap; lower-value
	// bits scale the budget up by gap/value (a wrong low bit moves the
	// clone less than the gap already allows). Default 0.001.
	VoteErrorTarget float64
	// ProbeInterval widens every Nth single-read bit back to a 3-vote
	// probe so the disagreement estimate keeps tracking a drifting
	// channel after the adaptive width has dropped to 1 (default 64).
	ProbeInterval int
}

// DefaultSchedulerConfig returns the enabled scheduler at its default
// operating point.
func DefaultSchedulerConfig() SchedulerConfig {
	return SchedulerConfig{
		Enabled:         true,
		ExitChangeRate:  0.05,
		ExitConfidence:  0.99,
		MinExitSamples:  256,
		VoteErrorTarget: 0.001,
		ProbeInterval:   64,
	}
}

// withDefaults fills zero knobs from DefaultSchedulerConfig, preserving
// Enabled.
func (s SchedulerConfig) withDefaults() SchedulerConfig {
	def := DefaultSchedulerConfig()
	if s.ExitChangeRate <= 0 {
		s.ExitChangeRate = def.ExitChangeRate
	}
	if s.ExitConfidence <= 0 || s.ExitConfidence >= 1 {
		s.ExitConfidence = def.ExitConfidence
	}
	if s.MinExitSamples <= 0 {
		s.MinExitSamples = def.MinExitSamples
	}
	if s.VoteErrorTarget <= 0 {
		s.VoteErrorTarget = def.VoteErrorTarget
	}
	if s.ProbeInterval <= 0 {
		s.ProbeInterval = def.ProbeInterval
	}
	return s
}

// SchedulerState is the serializable position of the adaptive-vote
// estimator. It rides in every checkpoint: the chosen vote width is a
// deterministic function of this state, so restoring it is what keeps a
// resumed run's read sequence — and therefore the channel position —
// byte-identical to an uninterrupted run's.
type SchedulerState struct {
	// VoteReads counts successful raw reads inside multi-read votes.
	VoteReads int64
	// MinorityReads counts the reads that lost those votes — the only
	// observable evidence of silent bit flips the channel offers.
	MinorityReads int64
	// SinceProbe counts single-read bits since the last wide probe.
	SinceProbe int64
}

// scheduler is the per-run scheduling state: configuration, the
// configured vote-width clamp, and the disagreement estimator. A disabled
// scheduler votes every bit at the clamp and never learns or exits, so
// its state stays zero.
type scheduler struct {
	cfg   SchedulerConfig
	maxW  int // configured EffectiveReadRepeats — the hard width clamp
	state SchedulerState
}

func newScheduler(cfg SchedulerConfig, maxWidth int) *scheduler {
	if maxWidth < 1 {
		maxWidth = 1
	}
	return &scheduler{cfg: cfg.withDefaults(), maxW: maxWidth}
}

// flipRate is the smoothed estimate of the channel's silent-disagreement
// probability: minority votes over total votes with a Beta(1,1) prior, so
// a fresh scheduler starts cautious (rate 0.5) and converges as evidence
// accumulates.
func (s *scheduler) flipRate() float64 {
	return float64(s.state.MinorityReads+1) / float64(s.state.VoteReads+2)
}

// majorityError returns the probability that a width-r majority vote over
// i.i.d. flips of probability d returns the wrong bit: P[Binomial(r, d) >
// r/2]. r is odd and small (≤ the configured vote width).
func majorityError(r int, d float64) float64 {
	if r <= 1 {
		return d
	}
	var p float64
	for k := r/2 + 1; k <= r; k++ {
		p += float64(binomial(r, k)) * math.Pow(d, float64(k)) * math.Pow(1-d, float64(r-k))
	}
	return p
}

func binomial(n, k int) int64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	var c int64 = 1
	for i := 0; i < k; i++ {
		c = c * int64(n-i) / int64(i+1)
	}
	return c
}

// chooseWidth picks the vote width for one planned bit read: the
// configured EffectiveReadRepeats when the scheduler is disabled, else
// the narrowest odd width whose residual majority error under the
// estimated flip rate fits the bit's error budget, clamped to
// EffectiveReadRepeats — never wider than the baseline would vote. Every
// ProbeInterval-th read that would go out single is widened back to a
// 3-vote probe (only when the configured width allows ≥3) so the
// estimate cannot freeze on a drifting channel.
func (s *scheduler) chooseWidth(value, gap float64, st *Stats) int {
	if !s.cfg.Enabled || s.maxW <= 1 {
		return s.maxW
	}
	// A bit worth `value` inside an expected gap of `gap` tolerates
	// proportionally more vote error: a wrong low-place bit perturbs the
	// clone by less than the gap-sized uncertainty it already carries.
	target := s.cfg.VoteErrorTarget
	if value > 0 && gap > value {
		target *= gap / value
		if target > 0.25 {
			target = 0.25
		}
	}
	d := s.flipRate()
	width := s.maxW
	for r := 1; r < s.maxW; r += 2 {
		if majorityError(r, d) <= target {
			width = r
			break
		}
	}
	if width == 1 {
		s.state.SinceProbe++
		if s.state.SinceProbe >= int64(s.cfg.ProbeInterval) && s.maxW >= 3 {
			s.state.SinceProbe = 0
			st.ProbeReads++
			width = 3
		}
	}
	st.VoteWidthSum += int64(width)
	st.VoteWidthN++
	return width
}

// update feeds one vote's tally into the disagreement estimator. Votes of
// width < 2 carry no disagreement signal; escalated reads (votes == 0)
// are excluded — their failures are visible faults, not silent flips. A
// disabled scheduler keeps no estimate.
func (s *scheduler) update(ones, votes int) {
	if !s.cfg.Enabled || votes < 2 {
		return
	}
	minority := ones
	if 2*ones > votes {
		minority = votes - ones
	}
	s.state.VoteReads += int64(votes)
	s.state.MinorityReads += int64(minority)
}

// converged reports whether a tensor's bit posterior has settled: after
// at least MinExitSamples reads, the observed change rate plus a
// one-sided Hoeffding slack at ExitConfidence lies below ExitChangeRate.
// The remaining (strictly lower-value) planned bits can then be elided.
// A disabled scheduler never exits early.
func (s *scheduler) converged(reads, changed int) bool {
	c := s.cfg
	if !c.Enabled || reads < c.MinExitSamples {
		return false
	}
	slack := math.Sqrt(math.Log(1/(1-c.ExitConfidence)) / (2 * float64(reads)))
	return float64(changed)/float64(reads)+slack < c.ExitChangeRate
}

// bitTask is one planned bit read.
type bitTask struct {
	idx   int     // weight index within the tensor
	bit   int     // raw bit position, 0 = LSB (ieee754.SetBit)
	value float64 // place value 2^(e-k) of fraction bit k = FractionBits-bit
	gap   float64 // the weight's estimated fine-tuning gap
	score float64 // expected value correction — the schedule key
}

// mask is the task's bit as a weightBits mask.
func (t bitTask) mask() uint32 { return 1 << t.bit }

// planTensor builds the tensor's read plan: exactly Algorithm 1's
// candidate bits (Config.selectBits), one task per (weight, fraction
// bit). units is the plan's size as planTensorUnits counted it when the
// run declared its progress units; it only sizes the allocation.
// Unordered, the plan stays in (index, fraction bit k) order —
// Algorithm 1's own read sequence. Ordered, it follows the bit's expected
// |value correction|: its place value times a monotone estimate of the
// flip probability value/gap implies — U-shape aware through Config.gap,
// which grows with the pre-trained magnitude. Ties (and everything else)
// break on (idx, k), so either plan is a pure, deterministic function of
// (Config, base).
func planTensor(cfg Config, base []float32, units int64, ordered bool) []bitTask {
	tasks := make([]bitTask, 0, units)
	for i, b := range base {
		sel, gap := cfg.selectBits(b)
		for ; sel != 0; sel &= sel - 1 {
			k := bits.TrailingZeros32(sel)
			v := ieee754.FractionBitValue(b, k)
			tasks = append(tasks, bitTask{
				idx:   i,
				bit:   ieee754.FractionBits - k,
				value: v,
				gap:   gap,
				score: v * gap / (gap + 2*v),
			})
		}
	}
	if ordered {
		sortPlan(tasks)
	}
	return tasks
}

// sortPlan orders a plan by score descending, ties broken on weight index
// and then fraction bit k ascending. The comparator is negative exactly
// when a task goes first; a NaN score goes before nothing and nothing
// goes before it on score, and the sort is stable, so the order stays a
// pure function of the plan.
func sortPlan(tasks []bitTask) {
	slices.SortStableFunc(tasks, func(ta, tb bitTask) int {
		switch {
		case ta.score != tb.score:
			if ta.score > tb.score {
				return -1
			}
			return 1
		case ta.idx != tb.idx:
			return cmp.Compare(ta.idx, tb.idx)
		default:
			return cmp.Compare(tb.bit, ta.bit) // fraction bit k ascending
		}
	})
}

// planFull is the plan of a tensor with no baseline to select against —
// the head, which Algorithm 1 reads in full: every raw bit 0..31 of every
// weight, in index order.
func planFull(n int) []bitTask {
	tasks := make([]bitTask, 0, 32*n)
	for i := 0; i < n; i++ {
		for bit := 0; bit < 32; bit++ {
			tasks = append(tasks, bitTask{idx: i, bit: bit})
		}
	}
	return tasks
}

// planTensorUnits counts the tensor's candidate bit set — exactly
// len(planTensor(cfg, base, units, ordered)) for either order — without
// building the plan. This is the planned simulated-unit total a
// ProgressTracker commits to for a selective tensor: a pure function of
// (Config, base), worker-invariant and stable across checkpoint/resume.
func planTensorUnits(cfg Config, base []float32) int64 {
	var units int64
	for _, b := range base {
		sel, _ := cfg.selectBits(b)
		units += int64(bits.OnesCount32(sel))
	}
	return units
}
