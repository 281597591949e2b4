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
//     in full — the same algorithm over a zero baseline with all 32 bits
//     planned;
//  4. the head first, then the encoder layers from the last one backward,
//     are extracted until the clone's predictions match the victim (Table
//     1: early layers can keep pre-trained weights). The stop condition
//     ends every schedule entry, the head's included — when fine-tuning
//     barely moved the backbone, the recovered head alone completes the
//     clone.
package extract

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"math/bits"
	"os"

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
// pre-trained value, read returns the victim's raw bit (0 = LSB) over a
// fault-free channel. It returns the clone value and which fraction bits
// (MSB-first indices) were read, each majority-voted at
// EffectiveReadRepeats. Reads through a faulty channel go through the
// tensor loop (run.readPlan), which owns the degrade rule.
func (c Config) ExtractWeight(base float32, read func(bit int) int) (float32, []int) {
	v := c.voted(read)
	sel, _ := c.selectBits(base)
	clone := base
	var checked []int
	for ; sel != 0; sel &= sel - 1 {
		k := bits.TrailingZeros32(sel)
		clone = ieee754.SetFractionBit(clone, k, v(ieee754.FractionBits-k))
		checked = append(checked, k)
	}
	return clone, checked
}

// selectBits is Algorithm 1's bit selection for one weight, shared by
// ExtractWeight and the tensor planner (planTensor, planTensorUnits).
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
	// Step 1: near-zero pre-trained weights are copied unread.
	if math.Abs(float64(base)) < c.SkipThreshold {
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
	first, n := gapBits(ieee754.UnbiasedExponent(base), ieee754.FractionBits, gap, c.MaxBitsPerWeight)
	return (1<<n - 1) << first, gap
}

// gapBits is Step 2's place-value bracket in closed form, for any float
// format: of a value with unbiased exponent exp and fracBits fraction
// bits, the limit most significant fraction bits k (MSB-first) whose
// place value 2^(exp−k) is at most gap. They are the n bits first,
// first+1, …, first+n−1.
//
// With gap = f·2^g (math.Frexp, f ∈ [½, 1)), 2^(exp−k) ≤ gap exactly when
// k ≥ exp−g+1, so the run starts at max(1, exp−g+1). No place value
// exceeds a NaN or +Inf gap, so that run starts at k = 1; every one
// exceeds a gap ≤ 0, so that run is empty.
func gapBits(exp, fracBits int, gap float64, limit int) (first, n int) {
	first = 1
	switch {
	case limit <= 0 || gap <= 0:
		return first, 0
	case !math.IsNaN(gap) && !math.IsInf(gap, 1):
		_, g := math.Frexp(gap)
		first = max(first, exp-g+1)
	}
	return first, max(0, min(limit, fracBits-first+1))
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
	HeadBitsRead int64 // logical: head bit positions read (32 per weight on a clean channel)

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
	// CheckpointPath, when set, is the run's checkpoint log: after every
	// extracted tensor the run appends one record (the tensors finished
	// since the last record, the accounting, the channel position), so
	// the log always replays to a resumable state (checkpoint.go).
	CheckpointPath string
	// Resume, when set together with CheckpointPath, replays an
	// existing log before extracting: completed tensors are not
	// re-read, no hammer rounds are re-paid, and the restored meters
	// make the registry reconcile byte-for-byte with an uninterrupted
	// run. The caller must supply the same Pre, Cfg, FaultPlan, and
	// noise seed as the interrupted run; a missing or empty log simply
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

	// scores holds the victim's and the clone's predictions from the stop
	// check that scored the clone the last RunContext returned (Scores).
	scores [2][]int
}

// Scores returns the victim's and the returned clone's predictions on the
// validation inputs, as the last successful RunContext's final stop check
// computed them: the victim's are Victim's answers, the clone's equal
// clone.Predictions(validation). Both are nil when no check scored that
// clone — a resumed completed checkpoint, a resume whose checkpoint had
// finished every schedule entry, a nil Victim or an empty validation set
// — and after a failed or interrupted run.
func (e *Extractor) Scores() (victim, clone []int) {
	return e.scores[0], e.scores[1]
}

// run is one RunContext call's state: the clone and its tensors, the
// schedule and how far it got, the accounting, the schedulers, and the
// run's instruments. Its methods are the read stack, the tensor loop and
// the tensor-boundary protocol.
type run struct {
	*Extractor
	// ctx is checked at tensor boundaries alongside the read budget, per
	// planned bit inside tensor loops, and — through Oracle.Bind — before
	// every metered read.
	ctx         context.Context
	numLabels   int
	validation  []transformer.Example
	victimPreds []int
	clonePreds  []int // the last stop check's, nil before the first

	clone  *transformer.Model
	params map[string][]float32 // the clone's tensors by name
	pre    map[string][]float32 // the baseline's tensors by name
	stats  *Stats

	// order is the schedule, one layer number per entry: the head (whose
	// Layer is Pre.Layers) first, then the encoder layers down to the
	// embeddings (-1). layersDone counts the finished entries; done and
	// doneOrder record the finished tensors, which may include some of
	// the next entry's.
	order      []int
	layersDone int
	done       map[string]bool
	doneOrder  []string
	unitsOf    map[string]int64 // planned progress units per tensor
	unitsDone  int64

	// sched reads the selective tensors (Algorithm 1's fixed schedule
	// unless Cfg.Schedule.Enabled); its estimator state rides in
	// checkpoints.
	sched *scheduler

	// ckpt is the checkpoint log's append handle, opened by the run's
	// first record and closed when RunContext returns; logged counts the
	// entries of doneOrder the log already holds.
	ckpt   *os.File
	logged int

	// The histograms are fed live reads, so unlike the counters published
	// from Stats they cover only work performed in this run — a resumed
	// run's histograms describe the resumed portion.
	hBitRounds     *obs.Histogram
	hTensorRounds  *obs.Histogram
	hTensorRetries *obs.Histogram
	flight         *obs.FlightRecorder
	log            *slog.Logger
}

// tensorRetry carries the per-tensor retry budget through one tensor's
// read stack.
type tensorRetry struct{ budget int }

// retryRead is the fault-tolerant raw read of one bit: retryable faults
// are retried up to rp.MaxAttempts with bounded exponential backoff in
// simulated rounds (advancing the channel clock, which is what ends an
// outage epoch), metered against the tensor's retry budget. Exhausted
// retries surface as errBitUnreadable — the escalation trigger — and
// permanent faults pass through untouched.
func (r *run) retryRead(name string, idx, bit int, rp RetryPolicy, tr *tensorRetry) (int, error) {
	st := r.stats
	backoff := rp.BackoffBase
	var lastErr error
	for attempt := 0; attempt < rp.MaxAttempts; attempt++ {
		b, err := r.Oracle.ReadBit(name, idx, bit)
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
		r.Oracle.AdvanceClock(backoff)
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

// votedRead performs one logical bit read at the vote width the tensor's
// scheduler chose, through the full retry → escalate stack. Besides the
// voted bit it returns the vote tally — the scheduler's only evidence of
// silent flips. votes == 0 marks a result decided by escalation (no tally
// to learn from).
func (r *run) votedRead(name string, idx, bit, repeats int, rp RetryPolicy, tr *tensorRetry) (result, ones, votes int, err error) {
	// One observation per logical bit: the channel clock delta covers
	// vote repeats, backoff waits, and escalation bursts — the true
	// latency of recovering this bit, in simulated rounds.
	start := r.Oracle.Clock()
	defer func() { r.hBitRounds.Observe(float64(r.Oracle.Clock() - start)) }()
	for i := 0; i < repeats; i++ {
		b, rerr := r.retryRead(name, idx, bit, rp, tr)
		if rerr != nil {
			if errors.Is(rerr, errBitUnreadable) {
				// Suspected stuck cell: discard the partial vote and
				// take one escalated, wider vote instead.
				res, eerr := r.escalate(name, idx, bit, rp)
				return res, 0, 0, eerr
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
func (r *run) escalate(name string, idx, bit int, rp RetryPolicy) (int, error) {
	r.stats.Escalations++
	r.flight.Note("escalate", name, map[string]string{
		"index": fmt.Sprint(idx), "bit": fmt.Sprint(bit),
	})
	ones, votes := 0, 0
	for a := 0; a < 2*rp.EscalateRepeats && votes < rp.EscalateRepeats; a++ {
		b, err := r.Oracle.ReadBit(name, idx, bit)
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
// With CheckpointPath set the run is resumable: a record is appended
// after every tensor, and a later Run with Resume replays the log —
// completed tensors are never re-read, so an interrupted-then-resumed
// extraction is byte-identical to an uninterrupted one (clone weights,
// Stats, and obs counters) while paying each hammer round exactly once.
func (e *Extractor) Run(numLabels int, validation []transformer.Example) (*transformer.Model, *Stats, error) {
	return e.RunContext(context.Background(), numLabels, validation)
}

// RunContext is Run under a context. Cancellation (or a deadline) is a
// third interrupt door next to the read budget: it is checked at tensor
// boundaries — right after the checkpoint write, so the interrupted
// state is always resumable — per planned bit inside tensor loops, and
// before every metered oracle read (Oracle.Bind). However it lands, the
// run returns ErrInterrupted, the boundary checkpoint stands, and because
// an aborted read charges no meter, a Resume run reproduces the clone,
// Stats, and obs counters of an uninterrupted run byte-identically.
func (e *Extractor) RunContext(ctx context.Context, numLabels int, validation []transformer.Example) (*transformer.Model, *Stats, error) {
	defer e.Obs.StartSpan("extract.run_seconds").End()
	e.scores = [2][]int{}
	r, err := e.newRun(ctx, numLabels, validation)
	if err != nil {
		return nil, nil, err
	}
	defer r.closeLog()
	complete, err := r.restore()
	if err != nil {
		return nil, nil, err
	}
	r.stats.EffectiveReadRepeats = e.Cfg.EffectiveReadRepeats()

	// Victim predictions are queries, not reads: a resumed run re-issues
	// them (its registry must account for them like any run's), but only
	// charges Stats once — QueriesUsed survives the checkpoint.
	if e.Victim != nil {
		for i, ex := range validation {
			r.victimPreds[i] = e.Victim(ex.Tokens)
		}
		if r.stats.QueriesUsed == 0 {
			r.stats.QueriesUsed = len(validation)
		}
	}

	// A completed checkpoint short-circuits everything: the clone and the
	// accounting are already final; no hammer round is re-paid.
	if complete {
		r.publish()
		return r.clone, r.stats, nil
	}

	// Every schedule entry ends in the one stop check. After the head
	// entry it costs only queries: when fine-tuning barely moved the
	// backbone, the pre-trained backbone alone already reproduces the
	// victim. A resumed run restarts at the first unfinished entry, so it
	// neither repeats nor skips a check — the extra forwards would break
	// accounting parity with the uninterrupted run.
	for li := r.layersDone; li < len(r.order); li++ {
		layer := r.order[li]
		if err := r.extractEntry(layer); err != nil {
			return nil, nil, err
		}
		if layer >= 0 && layer < e.Pre.Layers {
			r.stats.LayersExtracted++
		}
		r.layersDone = li + 1
		if r.stopped() {
			break
		}
		if err := r.save(false); err != nil {
			return nil, nil, err
		}
	}
	if err := r.save(true); err != nil {
		return nil, nil, err
	}
	if err := r.closeLog(); err != nil {
		return nil, nil, fmt.Errorf("extract: checkpoint: %w", err)
	}
	r.publish()
	if r.clonePreds != nil {
		// The loop's last stop check scored the clone as returned.
		e.scores = [2][]int{r.victimPreds, r.clonePreds}
	}
	return r.clone, r.stats, nil
}

// newRun builds the run's clone, validates the address map against the
// oracle, lays out the schedule and declares the planned progress units.
func (e *Extractor) newRun(ctx context.Context, numLabels int, validation []transformer.Example) (*run, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if ctx.Done() != nil {
		// Only a cancellable context is worth a per-read check; plain
		// Background keeps the metered path branch-free.
		e.Oracle.Bind(ctx)
	}
	r := &run{
		Extractor:      e,
		ctx:            ctx,
		numLabels:      numLabels,
		validation:     validation,
		victimPreds:    make([]int, len(validation)),
		params:         make(map[string][]float32),
		pre:            indexParams(e.Pre),
		stats:          &Stats{LayersTotal: e.Pre.Layers},
		done:           make(map[string]bool),
		unitsOf:        make(map[string]int64),
		sched:          newScheduler(e.Cfg.Schedule, e.Cfg.EffectiveReadRepeats()),
		hBitRounds:     e.Obs.Histogram("extract.bit_read_rounds"),
		hTensorRounds:  e.Obs.Histogram("extract.tensor_rounds"),
		hTensorRetries: e.Obs.Histogram("extract.tensor_retries"),
		flight:         e.Obs.Flight(),
		log:            e.Obs.Log(),
	}

	// The clone starts as the pre-trained backbone with a head of the
	// observed width. Its weights are not sampled: the copies overwrite
	// the backbone, the head's plan starts from a zero baseline, and a
	// resume overwrites the tensors it restores.
	r.clone = transformer.NewWithInit(e.Pre.Config.WithLabels(numLabels), 0, transformer.Init{})
	r.clone.CopyEmbeddingsFrom(e.Pre)
	for l := range e.Pre.Blocks {
		r.clone.CopyBlockFrom(e.Pre, l)
	}
	r.stats.ModelWeights = r.clone.ParamCount()

	// Validate the address map against the oracle before any metered
	// read: every tensor the schedule will touch must exist on the victim
	// with the size the clone expects. Catching a mismatch here turns a
	// would-be mid-extraction fault into a clean refusal.
	//
	// Planned simulated units: the logical bit set the schedule commits
	// to — 32 bits per head weight, Algorithm 1's candidate set for the
	// selective tensors (planTensorUnits; the same for either read
	// order). A pure function of (Config, Pre, numLabels), declared
	// before any metered work so fractions are monotone from the first
	// tensor and recomputed identically on resume.
	var planned int64
	for _, p := range r.clone.Params() {
		if sz := e.Oracle.TensorSize(p.Name); sz != len(p.Value.Data) {
			return nil, fmt.Errorf(
				"extract: address map mismatch for tensor %q: victim has %d weights, clone expects %d",
				p.Name, sz, len(p.Value.Data))
		}
		r.params[p.Name] = p.Value.Data
		u := 32 * int64(len(p.Value.Data))
		if !p.IsHead {
			u = planTensorUnits(e.Cfg, r.pre[p.Name])
		}
		r.unitsOf[p.Name] = u
		planned += u
	}
	e.Progress.SetPlanned(planned)

	// The schedule: the head, then the last encoder layer down to the
	// embeddings; Table 1's observation makes this the order in which the
	// early-stop condition fires soonest. FirstLayersFirst reverses the
	// encoder part for the ablation.
	r.order = []int{e.Pre.Layers}
	for i := 0; i <= e.Pre.Layers; i++ {
		if e.Cfg.FirstLayersFirst {
			r.order = append(r.order, i-1)
		} else {
			r.order = append(r.order, e.Pre.Layers-1-i)
		}
	}
	return r, nil
}

// restore applies the checkpoint when resuming: completed tensors land in
// the clone, the accounting in stats, and the channel (meters, clock,
// noise stream) and the scheduler's estimator rewind to exactly where the
// interrupted run stood. It reports whether the extraction had finished.
func (r *run) restore() (complete bool, err error) {
	ck, err := r.loadCheckpoint()
	if ck == nil {
		return false, err
	}
	*r.stats = ck.Stats
	for _, t := range ck.Tensors {
		copy(r.params[t.Name], t.Data)
		r.done[t.Name] = true
		r.doneOrder = append(r.doneOrder, t.Name)
		r.unitsDone += r.unitsOf[t.Name]
	}
	r.logged = len(r.doneOrder)
	r.layersDone = ck.LayersDone
	r.Oracle.RestoreState(ck.Channel)
	// The adaptive vote width is a pure function of this state; restoring
	// it keeps the resumed read sequence byte-identical.
	r.sched.state = ck.Sched
	r.Progress.Complete(r.unitsDone, "restored")
	return ck.Complete, nil
}

// extractEntry extracts one schedule entry's unfinished tensors, closing
// each with the tensor-boundary protocol.
func (r *run) extractEntry(layer int) error {
	defer r.Obs.StartSpan("extract.layer_seconds").End()
	for _, p := range r.clone.Params() {
		if p.Layer != layer || r.done[p.Name] {
			continue
		}
		if err := r.extractTensor(p); err != nil {
			return r.wrapErr(err)
		}
		if err := r.boundary(p.Name); err != nil {
			return err
		}
	}
	return nil
}

// boundary is the tensor-boundary protocol: mark the tensor done, credit
// its planned progress units, write the checkpoint, then check the read
// budget and the context. Progress values are cumulative absolutes, never
// deltas: a resumed run recomputes the same running sums from its
// restored doneOrder, so progress ratchets through an identical sequence
// instead of double counting.
func (r *run) boundary(name string) error {
	r.done[name] = true
	r.doneOrder = append(r.doneOrder, name)
	r.unitsDone += r.unitsOf[name]
	r.Progress.Complete(r.unitsDone, name)
	if err := r.save(false); err != nil {
		return err
	}
	return r.interrupted()
}

// save appends one record to the run's checkpoint log, when
// CheckpointPath is set: the run's state and the tensors finished since
// the previous record.
func (r *run) save(complete bool) error {
	if r.CheckpointPath == "" {
		return nil
	}
	rec := &Checkpoint{
		Complete:    complete,
		LayersDone:  r.layersDone,
		Stats:       *r.stats,
		Channel:     r.Oracle.State(),
		Sched:       r.sched.state,
		NumLabels:   r.numLabels,
		LayersTotal: r.Pre.Layers,
	}
	for _, name := range r.doneOrder[r.logged:] {
		rec.Tensors = append(rec.Tensors, checkpointTensor{Name: name, Data: r.params[name]})
	}
	if err := r.appendRecord(rec); err != nil {
		return fmt.Errorf("extract: checkpoint: %w", err)
	}
	r.logged = len(r.doneOrder)
	return nil
}

// closeLog closes the checkpoint log's append handle, if the run opened
// one and has not closed it yet.
func (r *run) closeLog() error {
	if r.ckpt == nil {
		return nil
	}
	err := r.ckpt.Close()
	r.ckpt = nil
	return err
}

// interrupted is the stop check at a tensor boundary: the read budget
// first, then the context. Both doors sit right after the checkpoint
// record, so whichever fires leaves a resumable log with the channel
// parked exactly at the boundary. The budget counts every physical
// attempt the channel metered — successful and faulted, restored rounds
// included — so a tensor is never split across runs.
func (r *run) interrupted() error {
	if paid := r.Oracle.Attempts(); r.ReadBudget > 0 && paid >= r.ReadBudget {
		r.flight.Note("interrupt", "read budget exhausted", map[string]string{
			"paid":   fmt.Sprint(paid),
			"budget": fmt.Sprint(r.ReadBudget),
		})
		r.log.Warn("extraction interrupted at read budget",
			"paid", paid, "budget", r.ReadBudget, "tensors_done", len(r.doneOrder))
		return fmt.Errorf("%w: %d oracle attempts paid of a %d budget", ErrInterrupted, paid, r.ReadBudget)
	}
	if cerr := r.ctx.Err(); cerr != nil {
		r.flight.Note("interrupt", "context cancelled", map[string]string{
			"cause":        cerr.Error(),
			"tensors_done": fmt.Sprint(len(r.doneOrder)),
		})
		r.log.Warn("extraction interrupted by context",
			"err", cerr, "tensors_done", len(r.doneOrder))
		return fmt.Errorf("%w: %v", ErrInterrupted, cerr)
	}
	return nil
}

// stopped is the stop check that ends every schedule entry: with a victim
// to query, the clone agrees with it on at least StopMatchRate of the
// validation inputs.
func (r *run) stopped() bool {
	if r.Victim == nil || len(r.validation) == 0 {
		return false
	}
	r.stats.CloneForwards += int64(len(r.validation))
	r.clonePreds = r.clone.Predictions(r.validation)
	n := 0
	for i, pred := range r.clonePreds {
		if pred == r.victimPreds[i] {
			n++
		}
	}
	return float64(n)/float64(len(r.validation)) >= r.Cfg.StopMatchRate
}

// publish mirrors the run's logical accounting into the registry once the
// outcome is known. Everything flows from Stats — never from live
// increments — so a resumed run publishes restored work exactly once and
// the registry matches an uninterrupted run byte-for-byte. The oracle
// mirrors the physical side itself (restored via RestoreState).
func (r *run) publish() {
	// Every successful exit (completed checkpoint, schedule exhausted or
	// early-stopped) latches progress at exactly 1.0 — elided and
	// early-stopped work is finished work.
	r.Progress.MarkDone()
	st := r.stats
	r.Obs.Counter("extract.weights_selective").Add(int64(st.WeightsTotal))
	r.Obs.Counter("extract.bits_logical").Add(st.BitsChecked)
	r.Obs.Counter("extract.head_bits_logical").Add(st.HeadBitsRead)
	r.Obs.Counter("extract.layers_extracted").Add(int64(st.LayersExtracted))
	r.Obs.Counter("extract.clone_forwards").Add(st.CloneForwards)
	r.Obs.Counter("extract.retries").Add(st.Retries)
	r.Obs.Counter("extract.backoff_rounds").Add(st.BackoffRounds)
	r.Obs.Counter("extract.escalations").Add(st.Escalations)
	r.Obs.Counter("extract.bits_degraded").Add(st.BitsDegraded)
	r.Obs.Counter("extract.tensors_degraded").Add(int64(st.TensorsDegraded))
	r.Obs.Counter("extract.weights_nonfinite").Add(int64(st.WeightsNonFinite))
	r.Obs.Counter("extract.bits_elided").Add(st.BitsElided)
	r.Obs.Counter("extract.tensors_converged").Add(int64(st.TensorsConverged))
	r.Obs.Counter("extract.probe_reads").Add(st.ProbeReads)
	r.Obs.Counter("extract.runs").Inc()
	r.log.Info("extraction complete",
		"layers", st.LayersExtracted,
		"bits_logical", st.LogicalBitsRead(),
		"physical_reads", st.PhysicalBitReads,
		"retries", st.Retries,
		"tensors_degraded", st.TensorsDegraded)
}

// wrapErr maps a context error escaping a tensor loop to ErrInterrupted
// so mid-tensor cancellation surfaces exactly like budget exhaustion.
// The abandoned tensor is NOT checkpointed — the last boundary record
// stands, and since an aborted oracle read charges no meter, a Resume
// run re-pays only this tensor's partial work and still reproduces the
// uninterrupted clone, Stats, and counters byte-identically.
func (r *run) wrapErr(err error) error {
	if err == nil || (!errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)) {
		return err
	}
	r.flight.Note("interrupt", "context cancelled", map[string]string{"cause": err.Error()})
	r.log.Warn("extraction interrupted by context", "err", err)
	return fmt.Errorf("%w: %v", ErrInterrupted, err)
}

// tensorSpan instruments one tensor's extraction: a trace span (named
// after the tensor) on the victim's track, advanced by the simulated
// rounds the channel spent, plus the per-tensor latency/retry histograms
// and a debug log line. Returns the closer for defer.
func (r *run) tensorSpan(name string) func() {
	sp := r.Trace.Begin(name)
	clockStart := r.Oracle.Clock()
	retriesStart := r.stats.Retries
	return func() {
		rounds := r.Oracle.Clock() - clockStart
		r.Trace.Advance(rounds)
		sp.End()
		r.hTensorRounds.Observe(float64(rounds))
		r.hTensorRetries.Observe(float64(r.stats.Retries - retriesStart))
		r.log.Debug("tensor extracted", "tensor", name,
			"rounds", rounds, "retries", r.stats.Retries-retriesStart)
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

// extractTensor applies Algorithm 1 to one tensor of the clone. A
// selective tensor reads planTensor's plan — exactly Algorithm 1's
// candidate bits — over its pre-trained baseline under the run's
// scheduler, then takes the ground-truth accounting pass. The head has no
// baseline and is read in full: its plan is every raw bit of every weight
// in index order, read over zeros under a disabled scheduler — one vote
// width, EffectiveReadRepeats, and no early exit.
func (r *run) extractTensor(p transformer.NamedParam) error {
	defer r.tensorSpan(p.Name)()
	cfg, st, dst := r.Cfg, r.stats, p.Value.Data
	if p.IsHead {
		st.HeadWeights += len(dst)
		fixed := newScheduler(SchedulerConfig{}, cfg.EffectiveReadRepeats())
		_, err := r.readPlan(p.Name, make([]float32, len(dst)), dst, planFull(len(dst)), fixed, &st.HeadBitsRead)
		return err
	}
	base := r.pre[p.Name]
	st.WeightsTotal += len(base)
	st.BitsTotal += 32 * int64(len(base))
	masks, err := r.readPlan(p.Name, base, dst, planTensor(cfg, base, r.unitsOf[p.Name], cfg.Schedule.Enabled), r.sched, &st.BitsChecked)
	if err != nil {
		return err
	}

	// Ground-truth accounting (the simulator can peek for metrics; the
	// attacker cannot), decoupled from the read loop because the plan need
	// not visit weights in index order.
	for i, b := range base {
		m := masks[i]
		if !isFinite(b) {
			// Corrupt baseline, copied and flagged unread (see selectBits);
			// gap-based ground-truth accounting is meaningless against
			// garbage.
			st.WeightsNonFinite++
			continue
		}
		victim, err := r.Oracle.PeekWord(p.Name, i)
		if err != nil {
			return fmt.Errorf("extract: tensor %q: %w", p.Name, err)
		}
		if m.planned == 0 {
			// Algorithm 1 selected no bits for this weight (sub-threshold,
			// or the gap sits below the finest candidate place value).
			st.WeightsSkipped++
			if math.Abs(float64(victim-b)) < cfg.SkipThreshold {
				st.WeightsSkippedCorrect++
			}
		} else if math.Abs(float64(victim-dst[i])) <= cfg.gap(b) {
			st.WeightsWithinGap++
		}
		if dst[i] == victim {
			st.WeightsExact++
		}
		if (victim >= 0) != (b >= 0) && victim != 0 {
			st.SignFlips++
		}
		// Bits excluded correctly: unread bits that either match the
		// victim or sit below the negligible-impact place value (§6.1.1).
		for bit := 0; bit < 32; bit++ {
			if m.read&(1<<bit) != 0 {
				continue
			}
			if ieee754.Bit(victim, bit) == ieee754.Bit(b, bit) {
				st.BitsExcludedCorrect++
				continue
			}
			if bit < ieee754.FractionBits {
				k := ieee754.FractionBits - bit
				if ieee754.FractionBitValue(b, k) < cfg.SubtleValue {
					st.BitsExcludedCorrect++
				}
			}
		}
	}
	return nil
}

// readPlan is the one tensor loop. dst starts as a copy of base and takes
// every bit the plan reads; logical counts them. Disabled, the scheduler
// is Algorithm 1 itself (plan order, every bit voted at
// EffectiveReadRepeats); enabled, each vote width comes from the adaptive
// estimator (clamped to EffectiveReadRepeats), and a converged bit
// posterior elides the remaining — strictly lower-value — planned bits.
//
// Channel faults degrade by one rule in any plan order: an unreadable bit
// keeps the baseline bit; a spent tensor budget or dead region ends the
// tensor's reads, keeping every bit already read. A weight counts as
// degraded when a fault left any of its planned bits unread. readPlan
// returns the per-weight masks for the ground-truth pass.
func (r *run) readPlan(name string, base, dst []float32, plan []bitTask, sc *scheduler, logical *int64) ([]weightBits, error) {
	st := r.stats
	rp := r.Cfg.Retry.withDefaults()
	tr := &tensorRetry{budget: rp.TensorRetryBudget}
	faultsBefore := r.Oracle.FaultedReads
	defer func() { st.ReadFaults += r.Oracle.FaultedReads - faultsBefore }()

	copy(dst, base)
	masks := make([]weightBits, len(base))
	for _, t := range plan {
		masks[t.idx].planned |= t.mask()
	}
	reads, changed := 0, 0 // early-exit evidence for this tensor
	for ti, task := range plan {
		if cerr := r.ctx.Err(); cerr != nil {
			return nil, fmt.Errorf("extract: tensor %q: %w", name, cerr)
		}
		width := sc.chooseWidth(task.value, task.gap, st)
		before := r.Oracle.BitReads
		bit, ones, votes, err := r.votedRead(name, task.idx, task.bit, width, rp, tr)
		st.PhysicalBitReads += r.Oracle.BitReads - before
		if err != nil {
			if isBitDegrade(err) {
				st.BitsDegraded++
				masks[task.idx].lost |= task.mask()
				continue
			}
			if isTensorDegrade(err) {
				r.degradeTail(name, plan[ti:], masks)
				break
			}
			return nil, fmt.Errorf("extract: tensor %q: %w", name, err)
		}
		sc.update(ones, votes)
		dst[task.idx] = ieee754.SetBit(dst[task.idx], task.bit, bit)
		masks[task.idx].read |= task.mask()
		*logical++
		reads++
		if bit != ieee754.Bit(base[task.idx], task.bit) {
			changed++
		}
		if ti+1 < len(plan) && sc.converged(reads, changed) {
			st.BitsElided += int64(len(plan) - ti - 1)
			st.TensorsConverged++
			r.flight.Note("converge", name, map[string]string{
				"read":   fmt.Sprint(reads),
				"elided": fmt.Sprint(len(plan) - ti - 1),
			})
			break
		}
	}
	for _, m := range masks {
		if m.lost != 0 {
			st.WeightsDegraded++
		}
	}
	return masks, nil
}

// weightBits tracks one weight's planned bits through a tensor's read
// loop, as masks over raw bit positions (bit 0 = LSB).
type weightBits struct {
	planned, read, lost uint32
}

// degradeTail records a tensor-level fault that ended a tensor's reads:
// every still-planned bit stays at the baseline and its weight counts as
// degraded, while the bits already read are kept. The flight recorder and
// the log note the first weight left unread and how many were.
func (r *run) degradeTail(name string, rest []bitTask, masks []weightBits) {
	unread := make(map[int]bool)
	from := len(masks)
	for _, t := range rest {
		unread[t.idx] = true
		masks[t.idx].lost |= t.mask()
		from = min(from, t.idx)
	}
	r.stats.TensorsDegraded++
	r.stats.DegradedTensors = append(r.stats.DegradedTensors, name)
	r.flight.Note("degrade", name, map[string]string{
		"from": fmt.Sprint(from), "weights": fmt.Sprint(len(unread)),
	})
	r.log.Warn("tensor degraded", "tensor", name, "from", from, "weights", len(unread))
}
