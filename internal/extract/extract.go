// Package extract implements Decepticon's selective weight extraction
// (paper §6.1, Algorithm 1). Given the identified pre-trained model as a
// baseline and a rowhammer bit-read oracle over the black-box victim, it
// reconstructs the victim's weights while reading only the few fraction
// bits that fine-tuning can plausibly have changed:
//
//  1. weights whose pre-trained magnitude is below a threshold are copied
//     from the baseline unread ("discarding all weight values below 0.001
//     changes F1 by less than 0.01");
//  2. for the rest, only the fraction bits whose value covers the expected
//     fine-tuning gap (estimated from the pre-trained weight value, U-shape
//     aware) are read — at most two per weight;
//  3. the task-specific last layer has no pre-trained baseline and is read
//     in full;
//  4. encoder layers are extracted from the last layer backward, stopping
//     as soon as the clone's predictions match the victim (Table 1: early
//     layers can keep pre-trained weights). The stop condition is checked
//     before any backbone extraction too — when fine-tuning barely moved
//     the backbone, the recovered head alone completes the clone.
package extract

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"math/bits"

	"decepticon/internal/ieee754"
	"decepticon/internal/obs"
	"decepticon/internal/sidechannel"
	"decepticon/internal/transformer"
)

// Config tunes the selective extraction.
type Config struct {
	// SkipThreshold is Algorithm 1's step-1 magnitude cutoff (paper: 0.001).
	SkipThreshold float64
	// MaxBitsPerWeight caps the fraction bits read per weight (paper: 2).
	MaxBitsPerWeight int
	// GapBase and GapSlope estimate the expected fine-tuning weight gap
	// from the pre-trained magnitude: dist = GapBase + GapSlope·|w|.
	// The slope encodes the U-shape of Fig 4 (larger weights move more).
	GapBase  float64
	GapSlope float64
	// SubtleValue is §6.1.1's negligible-impact cutoff ("the remaining 18
	// bits ... make very subtle differences (less than 0.001)"): an unread
	// bit counts as correctly excluded when it matches the victim or its
	// place value is below this.
	SubtleValue float64
	// StopMatchRate ends the layer-by-layer schedule once the clone agrees
	// with the victim on at least this fraction of validation queries.
	StopMatchRate float64
	// ReadRepeats reads each bit this many times and majority-votes —
	// the standard mitigation for an unreliable rowhammer channel. 0 or 1
	// means single reads. Even values are rounded up to the next odd.
	ReadRepeats int
	// FirstLayersFirst reverses the extraction schedule (ablation only):
	// the paper extracts later layers first because early layers can keep
	// the pre-trained weights (Table 1), so the early-stop check fires
	// sooner in last-first order.
	FirstLayersFirst bool
	// Retry governs how reads behave on a faulted channel (see
	// RetryPolicy). Zero-valued fields take DefaultRetryPolicy values, so
	// a zero Retry is the sensible default, not "never retry".
	Retry RetryPolicy
	// Schedule tunes the bit-read scheduler (scheduler.go). Enabled, each
	// tensor's reads follow expected information, the vote width adapts to
	// the observed channel instead of the global ReadRepeats, and a
	// converged posterior exits early. The zero value is Algorithm 1's own
	// schedule: index order at a fixed EffectiveReadRepeats vote.
	Schedule SchedulerConfig
}

// RetryPolicy is the deterministic reaction to channel faults
// (sidechannel.ReadFault). All time is simulated: backoff advances the
// channel's round clock instead of sleeping, so retries are reproducible
// and worker-count invariant.
type RetryPolicy struct {
	// MaxAttempts bounds the attempts per bit read (first try included).
	// A bit still faulting after MaxAttempts is treated as a suspected
	// stuck cell and escalated.
	MaxAttempts int
	// BackoffBase is the simulated rounds waited after the first failed
	// attempt; each further failure doubles it up to BackoffMax
	// (bounded exponential backoff). Waiting advances the channel clock,
	// which is what ends an outage epoch.
	BackoffBase int64
	BackoffMax  int64
	// TensorRetryBudget caps the total retries spent inside one tensor.
	// When the budget runs out the remainder of the tensor degrades to
	// the pre-trained baseline (graceful degradation) instead of
	// grinding a dead region forever.
	TensorRetryBudget int
	// EscalateRepeats is the vote width of the last-ditch read burst on
	// a suspected stuck bit: up to 2×EscalateRepeats raw attempts
	// collecting EscalateRepeats successful reads. If none succeed, the
	// bit is degraded to the baseline bit.
	EscalateRepeats int
}

// DefaultRetryPolicy returns the operating point used by every
// experiment: generous enough to ride out transient runs and bounded
// outages, bounded enough that a dead region degrades quickly.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts:       8,
		BackoffBase:       32,
		BackoffMax:        4096,
		TensorRetryBudget: 4096,
		EscalateRepeats:   5,
	}
}

// withDefaults fills zero fields from DefaultRetryPolicy, field by
// field, so callers can override just one knob.
func (p RetryPolicy) withDefaults() RetryPolicy {
	def := DefaultRetryPolicy()
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = def.MaxAttempts
	}
	if p.BackoffBase <= 0 {
		p.BackoffBase = def.BackoffBase
	}
	if p.BackoffMax <= 0 {
		p.BackoffMax = def.BackoffMax
	}
	if p.TensorRetryBudget <= 0 {
		p.TensorRetryBudget = def.TensorRetryBudget
	}
	if p.EscalateRepeats <= 0 {
		p.EscalateRepeats = def.EscalateRepeats
	}
	return p
}

// DefaultConfig returns the paper's operating point.
func DefaultConfig() Config {
	return Config{
		SkipThreshold:    0.001,
		MaxBitsPerWeight: 2,
		GapBase:          0.003,
		GapSlope:         0.05,
		SubtleValue:      0.001,
		StopMatchRate:    0.98,
	}
}

// gap returns the expected fine-tuning weight-value gap for a pre-trained
// weight.
func (c Config) gap(base float32) float64 {
	return c.GapBase + c.GapSlope*math.Abs(float64(base))
}

// EffectiveReadRepeats returns the majority-vote width actually used per
// bit: 1 for ReadRepeats < 2, otherwise ReadRepeats rounded up to the
// next odd value (a tie-free vote needs an odd width). Cost reporting
// must use this, not the configured value — an even config silently pays
// one extra read per bit.
func (c Config) EffectiveReadRepeats() int {
	if c.ReadRepeats < 2 {
		return 1
	}
	if c.ReadRepeats%2 == 0 {
		return c.ReadRepeats + 1
	}
	return c.ReadRepeats
}

// voted wraps a raw bit reader with the majority-vote policy.
func (c Config) voted(read func(bit int) int) func(bit int) int {
	repeats := c.EffectiveReadRepeats()
	if repeats < 2 {
		return read
	}
	return func(bit int) int {
		ones := 0
		for i := 0; i < repeats; i++ {
			ones += read(bit)
		}
		if 2*ones > repeats {
			return 1
		}
		return 0
	}
}

// BitReader reads one raw bit (0 = LSB) of the weight under extraction.
// Unlike the infallible func(bit int) int shape, it can represent
// channel failure: implementations return sidechannel faults (or the
// sentinel errors of the retry stack) so Algorithm 1 can degrade
// gracefully instead of cloning garbage.
type BitReader func(bit int) (int, error)

// Sentinel errors of the fault-tolerant read stack.
var (
	// ErrInterrupted is returned by Run when the ReadBudget is exhausted
	// or the run's context is cancelled (RunContext) — the two interrupt
	// doors behave identically. The extraction state at that point is
	// saved to CheckpointPath (when set); a later Run with Resume
	// continues without re-paying any hammer rounds.
	ErrInterrupted = errors.New("extract: read budget exhausted, extraction interrupted")
	// errBitUnreadable marks a bit whose retries and escalation are spent:
	// the caller degrades the bit to the pre-trained baseline.
	errBitUnreadable = errors.New("extract: bit unreadable (suspected stuck cell)")
	// errTensorBudget marks a tensor whose retry budget is spent: the
	// caller degrades the rest of the tensor to the baseline.
	errTensorBudget = errors.New("extract: tensor retry budget exhausted")
)

// isBitDegrade reports whether err dooms only the current bit (stuck
// cell, or retries + escalation exhausted): the bit falls back to the
// baseline and extraction of the weight continues.
func isBitDegrade(err error) bool {
	if errors.Is(err, errBitUnreadable) {
		return true
	}
	var f *sidechannel.ReadFault
	return errors.As(err, &f) && !f.Retryable && f.Kind == sidechannel.FaultStuck
}

// isTensorDegrade reports whether err dooms the rest of the tensor: a
// spent retry budget, or a permanent region outage. The remainder of the
// tensor degrades to the baseline.
func isTensorDegrade(err error) bool {
	if errors.Is(err, errTensorBudget) {
		return true
	}
	var f *sidechannel.ReadFault
	return errors.As(err, &f) && !f.Retryable && f.Kind == sidechannel.FaultOutage
}

// ExtractWeight runs Algorithm 1 for a single weight: base is the
// pre-trained value, read returns the victim's raw bit (0 = LSB). It
// returns the clone value and which fraction bits (MSB-first indices) were
// read. Majority voting (ReadRepeats) is applied here; the error-aware
// path is ExtractWeightErr.
func (c Config) ExtractWeight(base float32, read func(bit int) int) (float32, []int) {
	v := c.voted(read)
	clone, checked, _, _ := c.ExtractWeightErr(base, func(bit int) (int, error) {
		return v(bit), nil
	})
	return clone, checked
}

// ExtractWeightErr is the error-aware Algorithm 1 for a single weight.
// read must already implement the caller's vote/retry policy. Besides
// the clone value and the checked bits it returns the fraction-bit
// indices that degraded to the baseline because their cell was
// unreadable. A non-nil error means the weight could not be handled at
// all (tensor-level failure or a non-fault error); bit-level failures
// never surface as errors.
func (c Config) ExtractWeightErr(base float32, read BitReader) (clone float32, checked, degraded []int, err error) {
	sel, _ := c.selectBits(base)
	clone = base
	for ; sel != 0; sel &= sel - 1 {
		k := bits.TrailingZeros32(sel)
		bit, rerr := read(ieee754.FractionBits - k)
		if rerr != nil {
			if isBitDegrade(rerr) {
				// The cell is gone; keep the baseline bit and move on.
				degraded = append(degraded, k)
				continue
			}
			return base, nil, nil, rerr
		}
		clone = ieee754.SetFractionBit(clone, k, bit)
		checked = append(checked, k)
	}
	return clone, checked, degraded, nil
}

// selectBits is Algorithm 1's bit selection for one weight, shared by
// ExtractWeightErr and the tensor planner (planTensor, planTensorUnits).
// It returns the fraction bits to read as a mask — bit k set means
// fraction bit k (MSB-first) is read — plus the weight's expected
// fine-tuning gap.
//
// Non-finite baselines (NaN/±Inf corruption in the identified model) are
// copied and reported unread: gap() on a non-finite value defeats every
// place-value comparison, and reading bits against it would burn hammer
// rounds cloning garbage.
func (c Config) selectBits(base float32) (sel uint32, gap float64) {
	if !isFinite(base) {
		return 0, 0
	}
	absBase := base
	if absBase < 0 {
		absBase = -absBase
	}
	// Step 1: near-zero pre-trained weights are copied unread.
	if float64(absBase) < c.SkipThreshold {
		return 0, 0
	}
	gap = c.gap(base)

	// Step 2: read the most significant fraction bits whose place value is
	// within the estimated gap — exactly the bits of Fig 13's example
	// (2^-10 and 2^-11 for a gap of ~0.002 at exponent -6). Bits coarser
	// than the gap cannot have flipped during fine-tuning; bits finer than
	// the checked pair "make very subtle differences (less than 0.001)".
	// (Algorithm 1 as printed brackets the same bits via the
	// int_base+fr_base ∈ [min,max] test, but that test only works for
	// weights in the lower half of their binade; the place-value bracket
	// is the example's intent and covers every weight.)
	n := 0
	for k := 1; k <= ieee754.FractionBits && n < c.MaxBitsPerWeight; k++ {
		if ieee754.FractionBitValue(absBase, k) > gap {
			continue
		}
		sel |= 1 << k
		n++
	}
	return sel, gap
}

// Stats accumulates the efficiency and correctness accounting of Fig 16
// and §7.4.
//
// Bit accounting distinguishes two views that coincide only when
// ReadRepeats ≤ 1:
//
//   - logical reads (BitsChecked, HeadBitsRead) count distinct (weight,
//     bit) positions Algorithm 1 decided to recover — the algorithmic
//     selectivity the paper's reduction factors describe;
//   - physical reads (PhysicalBitReads) count every metered oracle
//     access, including majority-vote repeats — the quantity rowhammer
//     rounds are actually paid for.
//
// All bit counters are int64: at 2048 hammer rounds per bit, realistic
// model sizes with ReadRepeats overflow 32-bit arithmetic.
type Stats struct {
	// Population (selective layers only; the fully-read last layer is
	// reported separately).
	WeightsTotal int
	BitsTotal    int64 // 32 × WeightsTotal

	// Reduction.
	WeightsSkipped int   // step-1 copies, zero bits read
	BitsChecked    int64 // logical: distinct fraction-bit positions read

	// Correctness ("correctly pruned/excluded" per DESIGN.md §4).
	WeightsSkippedCorrect int   // skipped and true gap below SkipThreshold
	BitsExcludedCorrect   int64 // unread and identical in victim and baseline
	WeightsExact          int   // clone bit-identical to victim
	WeightsWithinGap      int   // |clone - victim| ≤ expected gap
	SignFlips             int   // victim changed sign vs baseline (missed by design)

	// Last layer (full extraction).
	HeadWeights  int
	HeadBitsRead int64 // logical: 32 distinct bit positions per head weight

	// PhysicalBitReads is the oracle's meter delta over this run: every
	// bit access the channel charged for, selective and head, including
	// ReadRepeats majority-vote repeats. This — never the logical counts —
	// is what rowhammer cost scales with.
	PhysicalBitReads int64

	// Schedule.
	LayersExtracted int // encoder layers actually processed
	LayersTotal     int
	QueriesUsed     int // victim queries spent on the stop condition

	// CloneForwards counts clone forward passes spent on the stop
	// condition (mirrored into extract.clone_forwards at publish time, so
	// a resumed run restores rather than re-pays them).
	CloneForwards int64

	// EffectiveReadRepeats is the majority-vote width actually used per
	// bit (Config.EffectiveReadRepeats): even configured values round up
	// to the next odd, and every physical-cost reconciliation must use
	// this, not Config.ReadRepeats.
	EffectiveReadRepeats int

	// Channel-reliability accounting — all zero on a fault-free channel.
	ReadFaults    int64 // oracle attempts that failed with a ReadFault
	Retries       int64 // re-attempts after retryable faults
	BackoffRounds int64 // simulated rounds spent waiting between retries
	Escalations   int64 // last-ditch read bursts on suspected stuck bits

	// Graceful degradation: positions that kept the pre-trained baseline
	// (or, in the head, zero) because the channel could not read them.
	BitsDegraded     int64    // unreadable bit positions (stuck cells, spent retries)
	WeightsDegraded  int      // weights with ≥1 planned bit left unread by a fault
	WeightsNonFinite int      // non-finite baselines copied-and-flagged, never read
	TensorsDegraded  int      // tensors whose reads a tensor-level fault cut short
	DegradedTensors  []string // their names, in extraction order

	// Scheduler accounting — all zero unless Config.Schedule is enabled.
	BitsElided       int64 // planned bits left unread by posterior early exit
	TensorsConverged int   // tensors that early-exited on a converged posterior
	ProbeReads       int64 // single-read bits widened to keep the flip estimate live
	VoteWidthSum     int64 // sum of chosen vote widths over scheduled reads
	VoteWidthN       int64 // scheduled reads the widths were chosen for

	// ModelWeights is the victim's full scalar weight count (including the
	// head and any layers the early stop skipped) — the denominator for
	// whole-model cost comparisons.
	ModelWeights int
}

// MeanVoteWidth returns the average majority-vote width the scheduler
// actually used (0 when the scheduler was off). The gap between this and
// EffectiveReadRepeats is where the adaptive voting saves hammer rounds.
func (s *Stats) MeanVoteWidth() float64 {
	if s.VoteWidthN == 0 {
		return 0
	}
	return float64(s.VoteWidthSum) / float64(s.VoteWidthN)
}

// Coverage returns the fraction of handled weights that were actually
// extracted through the channel rather than degraded to the baseline —
// 1.0 on a healthy channel. Denominator: every weight the schedule
// handled (selective + head).
func (s *Stats) Coverage() float64 {
	total := s.WeightsTotal + s.HeadWeights
	if total == 0 {
		return 0
	}
	return 1 - float64(s.WeightsDegraded)/float64(total)
}

// SkipRate returns the fraction of selective-layer weights copied unread.
func (s *Stats) SkipRate() float64 {
	if s.WeightsTotal == 0 {
		return 0
	}
	return float64(s.WeightsSkipped) / float64(s.WeightsTotal)
}

// WeightsCorrectlyPruned is Fig 16's "Weights" bar: the fraction of
// weights handled without reading all bits and without error (skipped
// correctly, or within the expected gap after ≤MaxBits reads).
func (s *Stats) WeightsCorrectlyPruned() float64 {
	if s.WeightsTotal == 0 {
		return 0
	}
	return float64(s.WeightsSkippedCorrect+s.WeightsWithinGap) / float64(s.WeightsTotal)
}

// BitsCorrectlyExcluded is Fig 16's "Bits" bar: the fraction of all bits
// that were not read and match the victim anyway.
func (s *Stats) BitsCorrectlyExcluded() float64 {
	if s.BitsTotal == 0 {
		return 0
	}
	return float64(s.BitsExcludedCorrect) / float64(s.BitsTotal)
}

// LogicalBitsRead returns the distinct bit positions recovered
// (selective + head), independent of ReadRepeats.
func (s *Stats) LogicalBitsRead() int64 { return s.BitsChecked + s.HeadBitsRead }

// HammerRounds returns the simulated rowhammer rounds this extraction
// paid for. It is driven by *physical* reads — with ReadRepeats = r the
// cost is r× the logical bit count — and reconciles exactly with the
// oracle's own Oracle.HammerRounds() meter over the same run.
func (s *Stats) HammerRounds() int64 {
	return s.PhysicalBitReads * sidechannel.HammerRoundsPerBit
}

// OracleAttempts returns every metered channel access this extraction
// paid for — successful physical reads plus faulted attempts. This is
// the quantity ReadBudget bounds and the unit the campaign service
// charges against a tenant's budget.
func (s *Stats) OracleAttempts() int64 {
	return s.PhysicalBitReads + s.ReadFaults
}

// BitsReadFraction returns *logical* read bits / the victim's total bit
// count: the algorithmic selectivity of Algorithm 1, unaffected by
// majority-vote repeats.
func (s *Stats) BitsReadFraction() float64 {
	if s.ModelWeights == 0 {
		return 0
	}
	return float64(s.LogicalBitsRead()) / float64(32*s.ModelWeights)
}

// PhysicalReadFraction returns *physical* oracle reads / the victim's
// total bit count — ×ReadRepeats larger than BitsReadFraction under
// majority voting. Full-readout baselines pay the same repeat factor, so
// the paper-facing reduction ratios use the logical view; this is the
// number to quote when the question is absolute rowhammer cost.
func (s *Stats) PhysicalReadFraction() float64 {
	if s.ModelWeights == 0 {
		return 0
	}
	return float64(s.PhysicalBitReads) / float64(32*s.ModelWeights)
}

// ReductionFactor is how many times fewer bits the selective extraction
// reads than DeepSteal-style full extraction of every bit of the model.
// Logical/logical: both sides of the ratio count distinct bit positions,
// so the factor is invariant under ReadRepeats (a full readout would
// repeat its reads too).
func (s *Stats) ReductionFactor() float64 {
	read := s.LogicalBitsRead()
	if read == 0 {
		return 0
	}
	return float64(32*s.ModelWeights) / float64(read)
}

// Extractor drives the full model extraction.
type Extractor struct {
	Pre    *transformer.Model
	Oracle *sidechannel.Oracle
	Cfg    Config
	// Victim is the query interface used only for the stop condition
	// (predictions on validation inputs), never for weights.
	Victim func(tokens []int) int
	// Obs, when set, receives the extraction's cost accounting: logical
	// bit counters, clone forward passes, per-layer and whole-run wall
	// time. The oracle's physical meters are mirrored separately via
	// Oracle.SetObs.
	Obs *obs.Registry
	// CheckpointPath, when set, persists a resumable snapshot (completed
	// tensors, accounting, channel position) after every extracted
	// tensor, atomically via temp-file + rename.
	CheckpointPath string
	// Resume, when set together with CheckpointPath, restores an
	// existing snapshot before extracting: completed tensors are not
	// re-read, no hammer rounds are re-paid, and the restored meters
	// make the registry reconcile byte-for-byte with an uninterrupted
	// run. The caller must supply the same Pre, Cfg, FaultPlan, and
	// noise seed as the interrupted run; a missing snapshot file simply
	// starts fresh.
	Resume bool
	// ReadBudget, when > 0, bounds the metered oracle attempts
	// (successful + faulted physical reads, restored ones included).
	// Once exceeded — checked at tensor boundaries, so a tensor is never
	// split — Run saves a last checkpoint and returns ErrInterrupted.
	ReadBudget int64
	// Trace, when set, is this victim's trace track: Run opens one span
	// per extracted tensor and advances the track's logical clock by the
	// simulated rounds the channel spent, so a trace shows exactly where
	// hammer time went. Deterministic for any worker count (the clock
	// only moves by simulated units).
	Trace *obs.Track
	// Progress, when set, is this victim's live-telemetry handle: Run
	// declares the planned simulated units (the plan's logical bit set)
	// up front, credits each tensor's units at its boundary, and marks
	// the item done on every successful exit. All values derive from the
	// deterministic plan and the checkpointed completion order, so a
	// resumed run ratchets through exactly the values an uninterrupted
	// run reports (nil-safe; see obs.ProgressTracker).
	Progress *obs.ItemProgress

	// Instrument handles resolved once per Run (nil-safe no-ops). The
	// histograms are fed live reads, so unlike the counters published
	// from Stats they cover only work performed in this run — a resumed
	// run's histograms describe the resumed portion.
	hBitRounds     *obs.Histogram
	hTensorRounds  *obs.Histogram
	hTensorRetries *obs.Histogram
	flight         *obs.FlightRecorder
	log            *slog.Logger

	// ctx is the run's context (set by RunContext). Checked at tensor
	// boundaries alongside the read budget, per weight inside tensor
	// loops, and — through Oracle.Bind — before every metered read.
	ctx context.Context

	// sched is the run's bit-read scheduler (Algorithm 1's fixed schedule
	// unless Cfg.Schedule.Enabled); its estimator state rides in
	// checkpoints.
	sched *scheduler
}

// tensorRetry carries the per-tensor retry budget through one tensor's
// read stack.
type tensorRetry struct{ budget int }

// retryingRead builds the fault-tolerant raw reader for one weight:
// retryable faults are retried up to rp.MaxAttempts with bounded
// exponential backoff in simulated rounds (advancing the channel clock,
// which is what ends an outage epoch), metered against the tensor's
// retry budget. Exhausted retries surface as errBitUnreadable — the
// escalation trigger — and permanent faults pass through untouched.
func (e *Extractor) retryingRead(name string, idx int, rp RetryPolicy, st *Stats, tr *tensorRetry) BitReader {
	return func(bit int) (int, error) {
		backoff := rp.BackoffBase
		var lastErr error
		for attempt := 0; attempt < rp.MaxAttempts; attempt++ {
			b, err := e.Oracle.ReadBit(name, idx, bit)
			if err == nil {
				return b, nil
			}
			var f *sidechannel.ReadFault
			if !errors.As(err, &f) {
				return 0, err // not a channel fault (bad address map): abort
			}
			if !f.Retryable {
				return 0, err // stuck cell or dead region: degrade, don't wait
			}
			if tr.budget <= 0 {
				return 0, fmt.Errorf("tensor %q: %w", name, errTensorBudget)
			}
			tr.budget--
			st.Retries++
			st.BackoffRounds += backoff
			e.Oracle.AdvanceClock(backoff)
			if backoff < rp.BackoffMax {
				backoff *= 2
				if backoff > rp.BackoffMax {
					backoff = rp.BackoffMax
				}
			}
			lastErr = err
		}
		return 0, fmt.Errorf("%w after %d attempts: %v", errBitUnreadable, rp.MaxAttempts, lastErr)
	}
}

// reader stacks the full fault-tolerant policy for one weight: retrying
// raw reads, an EffectiveReadRepeats majority vote, and the escalated
// burst on suspected stuck bits.
func (e *Extractor) reader(name string, idx int, rp RetryPolicy, st *Stats, tr *tensorRetry) BitReader {
	repeats := e.Cfg.EffectiveReadRepeats()
	return func(bit int) (int, error) {
		b, _, _, err := e.votedRead(name, idx, bit, repeats, rp, st, tr)
		return b, err
	}
}

// votedRead performs one logical bit read at an explicit vote width
// through the full retry → escalate stack; reader (the head) uses the
// configured width, the selective loop whatever its scheduler chose. Besides the voted bit it
// returns the vote tally — the scheduler's only evidence of silent flips.
// votes == 0 marks a result decided by escalation (no tally to learn
// from).
func (e *Extractor) votedRead(name string, idx, bit, repeats int, rp RetryPolicy, st *Stats, tr *tensorRetry) (result, ones, votes int, err error) {
	// One observation per logical bit: the channel clock delta covers
	// vote repeats, backoff waits, and escalation bursts — the true
	// latency of recovering this bit, in simulated rounds.
	start := e.Oracle.Clock()
	defer func() { e.hBitRounds.Observe(float64(e.Oracle.Clock() - start)) }()
	read := e.retryingRead(name, idx, rp, st, tr)
	for i := 0; i < repeats; i++ {
		b, rerr := read(bit)
		if rerr != nil {
			if errors.Is(rerr, errBitUnreadable) {
				// Suspected stuck cell: discard the partial vote and
				// take one escalated, wider vote instead.
				r, eerr := e.escalate(name, idx, bit, rp, st)
				return r, 0, 0, eerr
			}
			return 0, 0, 0, rerr
		}
		ones += b
		votes++
	}
	if 2*ones > votes {
		return 1, ones, votes, nil
	}
	return 0, ones, votes, nil
}

// escalate is the higher-effective-ReadRepeats burst on a suspected
// stuck bit: up to 2×EscalateRepeats raw attempts (no backoff — the
// retry stage already waited out anything transient) collecting at most
// EscalateRepeats successful reads, majority-voted. No successful read
// at all confirms the stuck suspicion and degrades the bit.
func (e *Extractor) escalate(name string, idx, bit int, rp RetryPolicy, st *Stats) (int, error) {
	st.Escalations++
	e.flight.Note("escalate", name, map[string]string{
		"index": fmt.Sprint(idx), "bit": fmt.Sprint(bit),
	})
	ones, votes := 0, 0
	for a := 0; a < 2*rp.EscalateRepeats && votes < rp.EscalateRepeats; a++ {
		b, err := e.Oracle.ReadBit(name, idx, bit)
		if err != nil {
			var f *sidechannel.ReadFault
			if !errors.As(err, &f) {
				return 0, err
			}
			if !f.Retryable {
				if votes == 0 {
					// A permanent fault surfacing mid-escalation decides
					// the bit (stuck) or the tensor (dead region).
					return 0, err
				}
				break
			}
			continue
		}
		ones += b
		votes++
	}
	if votes == 0 {
		return 0, errBitUnreadable
	}
	if 2*ones > votes {
		return 1, nil
	}
	return 0, nil
}

// Run clones the victim. numLabels is the victim's observed output width
// (from querying); validation inputs drive the early-stop condition.
// It returns the clone and the accounting. A malformed address map (a
// tensor the oracle doesn't know, or a size mismatch) is attacker-facing
// input and returns an error before any rowhammer cost is paid.
//
// With CheckpointPath set the run is resumable: a snapshot is saved
// after every tensor, and a later Run with Resume restores it —
// completed tensors are never re-read, so an interrupted-then-resumed
// extraction is byte-identical to an uninterrupted one (clone weights,
// Stats, and obs counters) while paying each hammer round exactly once.
func (e *Extractor) Run(numLabels int, validation []transformer.Example) (*transformer.Model, *Stats, error) {
	return e.RunContext(context.Background(), numLabels, validation)
}

// RunContext is Run under a context. Cancellation (or a deadline) is a
// third interrupt door next to the read budget: it is checked at tensor
// boundaries — right after the checkpoint write, so the interrupted
// state is always resumable — per weight inside tensor loops, and before
// every metered oracle read (Oracle.Bind). However it lands, the run
// returns ErrInterrupted, the boundary checkpoint stands, and because an
// aborted read charges no meter, a Resume run reproduces the clone,
// Stats, and obs counters of an uninterrupted run byte-identically.
func (e *Extractor) RunContext(ctx context.Context, numLabels int, validation []transformer.Example) (*transformer.Model, *Stats, error) {
	defer e.Obs.StartSpan("extract.run_seconds").End()
	e.hBitRounds = e.Obs.Histogram("extract.bit_read_rounds")
	e.hTensorRounds = e.Obs.Histogram("extract.tensor_rounds")
	e.hTensorRetries = e.Obs.Histogram("extract.tensor_retries")
	e.flight = e.Obs.Flight()
	e.log = e.Obs.Log()
	if ctx == nil {
		ctx = context.Background()
	}
	e.ctx = ctx
	if ctx.Done() != nil {
		// Only a cancellable context is worth a per-read check; plain
		// Background keeps the metered path branch-free.
		e.Oracle.Bind(ctx)
	}
	cfg := e.Cfg
	stats := &Stats{LayersTotal: e.Pre.Layers}
	e.sched = newScheduler(cfg.Schedule, cfg.EffectiveReadRepeats())

	// The clone starts as the pre-trained backbone with a fresh head of
	// the observed width.
	clone := transformer.New(e.Pre.Config.WithLabels(numLabels), 0)
	clone.CopyEmbeddingsFrom(e.Pre)
	for l := range e.Pre.Blocks {
		clone.CopyBlockFrom(e.Pre, l)
	}
	stats.ModelWeights = clone.ParamCount()

	// Validate the address map against the oracle before any metered
	// read: every tensor the schedule will touch must exist on the victim
	// with the size the clone expects. Catching a mismatch here turns a
	// would-be mid-extraction fault into a clean refusal.
	cloneParams := make(map[string][]float32)
	for _, p := range clone.Params() {
		if sz := e.Oracle.TensorSize(p.Name); sz != len(p.Value.Data) {
			return nil, nil, fmt.Errorf(
				"extract: address map mismatch for tensor %q: victim has %d weights, clone expects %d",
				p.Name, sz, len(p.Value.Data))
		}
		cloneParams[p.Name] = p.Value.Data
	}

	// Planned simulated units: the logical bit set the schedule commits
	// to — 32 bits per head weight, Algorithm 1's candidate set for the
	// selective tensors (planTensorUnits; the same for either read
	// order). A pure function of (Config, Pre, numLabels), declared
	// before any metered work so fractions are monotone from the first
	// tensor and recomputed identically on resume.
	preParams := indexParams(e.Pre)
	unitsOf := make(map[string]int64)
	var plannedUnits int64
	for _, p := range clone.Params() {
		var u int64
		if p.IsHead {
			u = 32 * int64(len(p.Value.Data))
		} else {
			u = planTensorUnits(cfg, preParams[p.Name])
		}
		unitsOf[p.Name] = u
		plannedUnits += u
	}
	e.Progress.SetPlanned(plannedUnits)
	var unitsDone int64
	// tensorDone credits a finished tensor's planned units. Cumulative
	// absolute values (never deltas): a resumed run recomputes the same
	// running sums from its restored doneOrder, so progress ratchets
	// through an identical sequence instead of double counting.
	tensorDone := func(name string) {
		unitsDone += unitsOf[name]
		e.Progress.Complete(unitsDone, name)
	}

	// Checkpoint restore: completed tensors land in the clone, the
	// accounting in stats, and the channel (meters, clock, noise stream)
	// rewinds to exactly where the interrupted run stood.
	ck, err := e.loadCheckpoint(cloneParams, numLabels)
	if err != nil {
		return nil, nil, err
	}
	done := make(map[string]bool)
	var doneOrder []string
	layersDone := 0
	preloopDone := false
	if ck != nil {
		*stats = ck.Stats
		for _, t := range ck.Tensors {
			copy(cloneParams[t.Name], t.Data)
			done[t.Name] = true
			doneOrder = append(doneOrder, t.Name)
		}
		layersDone = ck.LayersDone
		preloopDone = ck.PreloopDone
		e.Oracle.RestoreState(ck.Channel)
		// The adaptive vote width is a pure function of this state;
		// restoring it keeps the resumed read sequence byte-identical.
		e.sched.state = ck.Sched
		for _, name := range doneOrder {
			unitsDone += unitsOf[name]
		}
		e.Progress.Complete(unitsDone, "restored")
	}
	stats.EffectiveReadRepeats = cfg.EffectiveReadRepeats()

	saveCk := func(complete bool) error {
		if e.CheckpointPath == "" {
			return nil
		}
		c := &Checkpoint{
			Version:     checkpointVersion,
			Complete:    complete,
			PreloopDone: preloopDone,
			LayersDone:  layersDone,
			Stats:       *stats,
			Channel:     e.Oracle.State(),
			Sched:       e.sched.state,
			NumLabels:   numLabels,
			LayersTotal: e.Pre.Layers,
		}
		for _, name := range doneOrder {
			c.Tensors = append(c.Tensors, checkpointTensor{Name: name, Data: cloneParams[name]})
		}
		return writeCheckpoint(e.CheckpointPath, c)
	}
	// The budget counts every physical attempt the channel metered —
	// successful and faulted, restored rounds included — and is checked
	// at tensor boundaries so a tensor is never split across runs.
	overBudget := func() error {
		if e.ReadBudget <= 0 {
			return nil
		}
		if paid := e.Oracle.Attempts(); paid >= e.ReadBudget {
			e.flight.Note("interrupt", "read budget exhausted", map[string]string{
				"paid":   fmt.Sprint(paid),
				"budget": fmt.Sprint(e.ReadBudget),
			})
			e.log.Warn("extraction interrupted at read budget",
				"paid", paid, "budget", e.ReadBudget, "tensors_done", len(doneOrder))
			return fmt.Errorf("%w: %d oracle attempts paid of a %d budget", ErrInterrupted, paid, e.ReadBudget)
		}
		return nil
	}
	// interrupted is the full tensor-boundary stop check: budget first,
	// then the context. Both doors sit right after the checkpoint write,
	// so whichever fires leaves a resumable snapshot with the channel
	// parked exactly at the boundary.
	interrupted := func() error {
		if err := overBudget(); err != nil {
			return err
		}
		if cerr := ctx.Err(); cerr != nil {
			e.flight.Note("interrupt", "context cancelled", map[string]string{
				"cause":        cerr.Error(),
				"tensors_done": fmt.Sprint(len(doneOrder)),
			})
			e.log.Warn("extraction interrupted by context",
				"err", cerr, "tensors_done", len(doneOrder))
			return fmt.Errorf("%w: %v", ErrInterrupted, cerr)
		}
		return nil
	}

	victimPreds := make([]int, len(validation))
	matches := func() float64 {
		if len(validation) == 0 {
			return 0
		}
		stats.CloneForwards += int64(len(validation))
		n := 0
		for i, pred := range clone.Predictions(validation) {
			if pred == victimPreds[i] {
				n++
			}
		}
		return float64(n) / float64(len(validation))
	}
	// publish mirrors the run's logical accounting into the registry once
	// the outcome is known. Everything flows from Stats — never from live
	// increments — so a resumed run publishes restored work exactly once
	// and the registry matches an uninterrupted run byte-for-byte. The
	// oracle mirrors the physical side itself (restored via RestoreState).
	publish := func() {
		// Every successful exit (completed checkpoint, pre-loop stop,
		// schedule exhausted or early-stopped) latches progress at
		// exactly 1.0 — elided and early-stopped work is finished work.
		e.Progress.MarkDone()
		e.Obs.Counter("extract.weights_selective").Add(int64(stats.WeightsTotal))
		e.Obs.Counter("extract.bits_logical").Add(stats.BitsChecked)
		e.Obs.Counter("extract.head_bits_logical").Add(stats.HeadBitsRead)
		e.Obs.Counter("extract.layers_extracted").Add(int64(stats.LayersExtracted))
		e.Obs.Counter("extract.clone_forwards").Add(stats.CloneForwards)
		e.Obs.Counter("extract.retries").Add(stats.Retries)
		e.Obs.Counter("extract.backoff_rounds").Add(stats.BackoffRounds)
		e.Obs.Counter("extract.escalations").Add(stats.Escalations)
		e.Obs.Counter("extract.bits_degraded").Add(stats.BitsDegraded)
		e.Obs.Counter("extract.tensors_degraded").Add(int64(stats.TensorsDegraded))
		e.Obs.Counter("extract.weights_nonfinite").Add(int64(stats.WeightsNonFinite))
		e.Obs.Counter("extract.bits_elided").Add(stats.BitsElided)
		e.Obs.Counter("extract.tensors_converged").Add(int64(stats.TensorsConverged))
		e.Obs.Counter("extract.probe_reads").Add(stats.ProbeReads)
		e.Obs.Counter("extract.runs").Inc()
		e.log.Info("extraction complete",
			"layers", stats.LayersExtracted,
			"bits_logical", stats.LogicalBitsRead(),
			"physical_reads", stats.PhysicalBitReads,
			"retries", stats.Retries,
			"tensors_degraded", stats.TensorsDegraded)
	}

	// Victim predictions are queries, not reads: a resumed run re-issues
	// them (its registry must account for them like any run's), but only
	// charges Stats once — QueriesUsed survives the checkpoint.
	if e.Victim != nil {
		for i, ex := range validation {
			victimPreds[i] = e.Victim(ex.Tokens)
		}
		if stats.QueriesUsed == 0 {
			stats.QueriesUsed = len(validation)
		}
	}

	// A completed checkpoint short-circuits everything: the clone and the
	// accounting are already final; no hammer round is re-paid.
	if ck != nil && ck.Complete {
		publish()
		return clone, stats, nil
	}

	// Step A: the task-dependent last layer has no baseline — full read
	// (with the same majority-vote and retry policy as the selective
	// reads, since a wrong sign or exponent bit here is catastrophic).
	for _, p := range clone.Params() {
		if !p.IsHead || done[p.Name] {
			continue
		}
		if err := e.extractHeadTensor(p.Name, p.Value.Data, stats); err != nil {
			return nil, nil, e.wrapErr(err)
		}
		done[p.Name] = true
		doneOrder = append(doneOrder, p.Name)
		tensorDone(p.Name)
		if err := saveCk(false); err != nil {
			return nil, nil, err
		}
		if err := interrupted(); err != nil {
			return nil, nil, err
		}
	}

	// With the head recovered, the pre-trained backbone alone may already
	// reproduce the victim (fine-tuning barely moves it); checking the stop
	// condition before any layer extraction costs only queries. A resumed
	// run that already passed this gate must not re-check it — the extra
	// forwards would break accounting parity with the uninterrupted run.
	if !preloopDone && e.Victim != nil && len(validation) > 0 {
		if matches() >= cfg.StopMatchRate {
			if err := saveCk(true); err != nil {
				return nil, nil, err
			}
			publish()
			return clone, stats, nil
		}
		preloopDone = true
		if err := saveCk(false); err != nil {
			return nil, nil, err
		}
	}
	// Schedule: last encoder layer down to the embeddings (-1); Table 1's
	// observation makes this the order in which the early-stop condition
	// fires soonest. FirstLayersFirst reverses it for the ablation.
	order := make([]int, 0, e.Pre.Layers+1)
	if cfg.FirstLayersFirst {
		for layer := -1; layer <= e.Pre.Layers-1; layer++ {
			order = append(order, layer)
		}
	} else {
		for layer := e.Pre.Layers - 1; layer >= -1; layer-- {
			order = append(order, layer)
		}
	}
	for li := layersDone; li < len(order); li++ {
		layer := order[li]
		layerSpan := e.Obs.StartSpan("extract.layer_seconds")
		for _, p := range clone.Params() {
			if p.IsHead || p.Layer != layer || done[p.Name] {
				continue
			}
			if terr := e.extractSelectiveTensor(p.Name, preParams[p.Name], p.Value.Data, stats); terr != nil {
				layerSpan.End()
				return nil, nil, e.wrapErr(terr)
			}
			done[p.Name] = true
			doneOrder = append(doneOrder, p.Name)
			tensorDone(p.Name)
			if err := saveCk(false); err != nil {
				layerSpan.End()
				return nil, nil, err
			}
			if err := interrupted(); err != nil {
				layerSpan.End()
				return nil, nil, err
			}
		}
		if layer >= 0 {
			stats.LayersExtracted++
		}
		layerSpan.End()
		layersDone = li + 1
		if e.Victim != nil && len(validation) > 0 {
			if m := matches(); m >= cfg.StopMatchRate {
				break
			}
		}
		if err := saveCk(false); err != nil {
			return nil, nil, err
		}
	}
	if err := saveCk(true); err != nil {
		return nil, nil, err
	}
	publish()
	return clone, stats, nil
}

// wrapErr maps a context error escaping a tensor loop to ErrInterrupted
// so mid-tensor cancellation surfaces exactly like budget exhaustion.
// The abandoned tensor is NOT checkpointed — the last boundary snapshot
// stands, and since an aborted oracle read charges no meter, a Resume
// run re-pays only this tensor's partial work and still reproduces the
// uninterrupted clone, Stats, and counters byte-identically.
func (e *Extractor) wrapErr(err error) error {
	if err == nil || (!errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)) {
		return err
	}
	e.flight.Note("interrupt", "context cancelled", map[string]string{"cause": err.Error()})
	e.log.Warn("extraction interrupted by context", "err", err)
	return fmt.Errorf("%w: %v", ErrInterrupted, err)
}

// ctxErr is the cheap cancellation probe used inside tensor loops (per
// head weight, per planned selective bit), so a cancellation lands
// within one weight's reads even between metered oracle reads.
func (e *Extractor) ctxErr() error {
	if e.ctx == nil {
		return nil
	}
	return e.ctx.Err()
}

// tensorSpan instruments one tensor's extraction: a trace span (named
// after the tensor) on the victim's track, advanced by the simulated
// rounds the channel spent, plus the per-tensor latency/retry histograms
// and a debug log line. Returns the closer for defer.
func (e *Extractor) tensorSpan(name string, stats *Stats) func() {
	sp := e.Trace.Begin(name)
	clockStart := e.Oracle.Clock()
	retriesStart := stats.Retries
	return func() {
		rounds := e.Oracle.Clock() - clockStart
		e.Trace.Advance(rounds)
		sp.End()
		e.hTensorRounds.Observe(float64(rounds))
		e.hTensorRetries.Observe(float64(stats.Retries - retriesStart))
		e.log.Debug("tensor extracted", "tensor", name,
			"rounds", rounds, "retries", stats.Retries-retriesStart)
	}
}

func indexParams(m *transformer.Model) map[string][]float32 {
	out := make(map[string][]float32)
	for _, p := range m.Params() {
		out[p.Name] = p.Value.Data
	}
	return out
}

// isFinite reports whether v is an ordinary number (not NaN or ±Inf).
func isFinite(v float32) bool {
	f := float64(v)
	return !math.IsNaN(f) && !math.IsInf(f, 0)
}

// extractHeadTensor fully reads one last-layer tensor (no baseline
// exists) through the fault-tolerant stack. Unreadable bits stay zero;
// if the tensor's retry budget dies (or its region is gone for good) the
// remaining weights are zeroed and recorded as degraded — with no
// baseline to fall back on, zero is the only honest value.
func (e *Extractor) extractHeadTensor(name string, dst []float32, stats *Stats) error {
	defer e.tensorSpan(name, stats)()
	rp := e.Cfg.Retry.withDefaults()
	tr := &tensorRetry{budget: rp.TensorRetryBudget}
	faultsBefore := e.Oracle.FaultedReads
	defer func() { stats.ReadFaults += e.Oracle.FaultedReads - faultsBefore }()
	degradeFrom := -1
	for i := range dst {
		if cerr := e.ctxErr(); cerr != nil {
			return fmt.Errorf("extract: head tensor %q: %w", name, cerr)
		}
		before := e.Oracle.BitReads
		read := e.reader(name, i, rp, stats, tr)
		var w float32
		logical := 0
		var werr error
		for bit := 0; bit < 32; bit++ {
			b, err := read(bit)
			if err != nil {
				if isBitDegrade(err) {
					stats.BitsDegraded++
					continue // the bit stays 0
				}
				werr = err
				break
			}
			w = ieee754.SetBit(w, bit, b)
			logical++
		}
		stats.PhysicalBitReads += e.Oracle.BitReads - before
		if werr != nil {
			if isTensorDegrade(werr) {
				degradeFrom = i
				break
			}
			return fmt.Errorf("extract: head readout: %w", werr)
		}
		dst[i] = w
		stats.HeadWeights++
		stats.HeadBitsRead += int64(logical)
		if logical < 32 {
			stats.WeightsDegraded++
		}
	}
	if degradeFrom >= 0 {
		for i := degradeFrom; i < len(dst); i++ {
			dst[i] = 0
			stats.HeadWeights++
			stats.WeightsDegraded++
		}
		stats.TensorsDegraded++
		stats.DegradedTensors = append(stats.DegradedTensors, name)
		e.noteDegrade(name, degradeFrom, len(dst))
	}
	return nil
}

// noteDegrade records a tensor falling back to its baseline (or zeros)
// in the flight recorder and the log.
func (e *Extractor) noteDegrade(name string, from, size int) {
	e.flight.Note("degrade", name, map[string]string{
		"from": fmt.Sprint(from), "weights": fmt.Sprint(size - from),
	})
	e.log.Warn("tensor degraded", "tensor", name, "from", from, "weights", size-from)
}

// extractSelectiveTensor applies Algorithm 1 to one selective tensor,
// writing the clone into dst and the accounting into stats. The loop
// reads planTensor's plan — exactly Algorithm 1's candidate bits — under
// the run's scheduler: disabled, that is Algorithm 1 itself (index
// order, every bit voted at EffectiveReadRepeats); enabled, reads follow
// descending information, each vote width comes from the adaptive
// estimator (clamped to EffectiveReadRepeats), and a converged bit
// posterior elides the remaining — strictly lower-value — planned bits.
//
// Channel faults degrade by one rule in either order: an unreadable bit
// keeps the baseline bit; a spent tensor budget or dead region ends the
// tensor's reads, keeping every bit already read. A weight counts as
// degraded when a fault left any of its planned bits unread.
func (e *Extractor) extractSelectiveTensor(name string, base, dst []float32, stats *Stats) error {
	defer e.tensorSpan(name, stats)()
	cfg := e.Cfg
	rp := cfg.Retry.withDefaults()
	tr := &tensorRetry{budget: rp.TensorRetryBudget}
	faultsBefore := e.Oracle.FaultedReads
	defer func() { stats.ReadFaults += e.Oracle.FaultedReads - faultsBefore }()

	// Every weight starts as its baseline copy.
	copy(dst, base)
	stats.WeightsTotal += len(base)
	stats.BitsTotal += 32 * int64(len(base))

	// Per-weight raw-bit masks: the bits planned, the bits read, and the
	// planned bits a fault left unread.
	plan := planTensor(cfg, base, cfg.Schedule.Enabled)
	masks := make([]weightBits, len(base))
	for _, t := range plan {
		masks[t.idx].planned |= t.rawMask()
	}
	sc := e.sched

	reads, changed := 0, 0 // early-exit evidence for this tensor
	for ti, task := range plan {
		if cerr := e.ctxErr(); cerr != nil {
			return fmt.Errorf("extract: tensor %q: %w", name, cerr)
		}
		width := sc.chooseWidth(task.value, task.gap, stats)
		before := e.Oracle.BitReads
		bit, ones, votes, err := e.votedRead(name, task.idx, ieee754.FractionBits-task.k, width, rp, stats, tr)
		stats.PhysicalBitReads += e.Oracle.BitReads - before
		if err != nil {
			if isBitDegrade(err) {
				stats.BitsDegraded++
				masks[task.idx].lost |= task.rawMask()
				continue
			}
			if isTensorDegrade(err) {
				e.degradeTail(name, plan[ti:], masks, stats)
				break
			}
			return fmt.Errorf("extract: tensor %q: %w", name, err)
		}
		sc.update(ones, votes)
		dst[task.idx] = ieee754.SetFractionBit(dst[task.idx], task.k, bit)
		masks[task.idx].read |= task.rawMask()
		stats.BitsChecked++
		reads++
		if bit != ieee754.FractionBit(base[task.idx], task.k) {
			changed++
		}
		if ti+1 < len(plan) && sc.converged(reads, changed) {
			stats.BitsElided += int64(len(plan) - ti - 1)
			stats.TensorsConverged++
			e.flight.Note("converge", name, map[string]string{
				"read":   fmt.Sprint(reads),
				"elided": fmt.Sprint(len(plan) - ti - 1),
			})
			break
		}
	}

	// Ground-truth accounting (the simulator can peek for metrics; the
	// attacker cannot), decoupled from the read loop because the plan need
	// not visit weights in index order.
	for i, b := range base {
		m := masks[i]
		if m.lost != 0 {
			stats.WeightsDegraded++
		}
		if !isFinite(b) {
			// Corrupt baseline, copied and flagged unread (see selectBits);
			// gap-based ground-truth accounting is meaningless against
			// garbage.
			stats.WeightsNonFinite++
			continue
		}
		victim, err := e.Oracle.PeekWord(name, i)
		if err != nil {
			return fmt.Errorf("extract: tensor %q: %w", name, err)
		}
		if m.planned == 0 {
			// Algorithm 1 selected no bits for this weight (sub-threshold,
			// or the gap sits below the finest candidate place value).
			stats.WeightsSkipped++
			if math.Abs(float64(victim-b)) < cfg.SkipThreshold {
				stats.WeightsSkippedCorrect++
			}
		} else if math.Abs(float64(victim-dst[i])) <= cfg.gap(b) {
			stats.WeightsWithinGap++
		}
		if dst[i] == victim {
			stats.WeightsExact++
		}
		if (victim >= 0) != (b >= 0) && victim != 0 {
			stats.SignFlips++
		}
		// Bits excluded correctly: unread bits that either match the
		// victim or sit below the negligible-impact place value (§6.1.1).
		for bit := 0; bit < 32; bit++ {
			if m.read&(1<<bit) != 0 {
				continue
			}
			if ieee754.Bit(victim, bit) == ieee754.Bit(b, bit) {
				stats.BitsExcludedCorrect++
				continue
			}
			if bit < ieee754.FractionBits {
				k := ieee754.FractionBits - bit
				if ieee754.FractionBitValue(b, k) < cfg.SubtleValue {
					stats.BitsExcludedCorrect++
				}
			}
		}
	}
	return nil
}

// weightBits tracks one weight's planned fraction bits through a tensor's
// read loop, as masks over raw bit positions (bit 0 = LSB).
type weightBits struct {
	planned, read, lost uint32
}

// rawMask is the task's raw bit position as a weightBits mask.
func (t bitTask) rawMask() uint32 { return 1 << (ieee754.FractionBits - t.k) }

// degradeTail records a tensor-level fault that ended a tensor's reads:
// every still-planned bit stays at the baseline and its weight counts as
// degraded, while the bits already read are kept.
func (e *Extractor) degradeTail(name string, rest []bitTask, masks []weightBits, stats *Stats) {
	unread := make(map[int]bool)
	for _, t := range rest {
		unread[t.idx] = true
		masks[t.idx].lost |= t.rawMask()
	}
	stats.TensorsDegraded++
	stats.DegradedTensors = append(stats.DegradedTensors, name)
	e.noteDegrade(name, len(masks)-len(unread), len(masks))
}
