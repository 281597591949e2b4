package extract

import (
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"decepticon/internal/ieee754"
	"decepticon/internal/obs"
	"decepticon/internal/rng"
	"decepticon/internal/sidechannel"
	"decepticon/internal/transformer"
)

// TestPlanTensorMatchesAlgorithmOne: the scheduler must reorder, never
// reselect — the planned (weight, bit) set is exactly what index-ordered
// Algorithm 1 would read on a clean channel.
func TestPlanTensorMatchesAlgorithmOne(t *testing.T) {
	cfg := DefaultConfig()
	pre, _ := smallPair()
	for _, p := range pre.Params() {
		if p.IsHead {
			continue
		}
		base := p.Value.Data
		want := map[[2]int]bool{}
		for i, b := range base {
			_, checked := cfg.ExtractWeight(b, func(bit int) int { return 0 })
			for _, k := range checked {
				want[[2]int{i, k}] = true
			}
		}
		plan := planTensor(cfg, base, 0, true)
		got := map[[2]int]bool{}
		for _, task := range plan {
			key := [2]int{task.idx, ieee754.FractionBits - task.bit}
			if got[key] {
				t.Fatalf("%s: duplicate task %v", p.Name, key)
			}
			got[key] = true
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: plan selects %d bits, Algorithm 1 selects %d", p.Name, len(got), len(want))
		}
	}
}

// TestPlanTensorOrdering: descending score, deterministic tie-break on
// (idx, fraction bit k), and a pure function of (Config, base).
func TestPlanTensorOrdering(t *testing.T) {
	cfg := DefaultConfig()
	pre, _ := smallPair()
	base := pre.Params()[0].Value.Data
	plan := planTensor(cfg, base, 0, true)
	if len(plan) == 0 {
		t.Fatal("empty plan for a dense tensor")
	}
	for i := 1; i < len(plan); i++ {
		a, b := plan[i-1], plan[i]
		if a.score < b.score {
			t.Fatalf("plan not in descending score order at %d: %v then %v", i, a.score, b.score)
		}
		if a.score == b.score && (a.idx > b.idx || (a.idx == b.idx && a.bit <= b.bit)) {
			t.Fatalf("tie at %d not broken by (idx, k): %+v then %+v", i, a, b)
		}
	}
	again := planTensor(cfg, base, 0, true)
	if !reflect.DeepEqual(plan, again) {
		t.Fatal("planTensor is not deterministic")
	}
}

// refSortPlan is sortPlan as the reflection-swapping stable sort it was
// first written as.
func refSortPlan(tasks []bitTask) {
	sort.SliceStable(tasks, func(a, b int) bool {
		ta, tb := tasks[a], tasks[b]
		if ta.score != tb.score {
			return ta.score > tb.score
		}
		if ta.idx != tb.idx {
			return ta.idx < tb.idx
		}
		return ta.bit > tb.bit
	})
}

// TestSortPlanMatchesReference: sortPlan places every task where the
// reference sort does, on random plans dense in ties and NaN scores and
// long enough to take the stable merge, not only the insertion sort.
func TestSortPlanMatchesReference(t *testing.T) {
	r := rng.New(7)
	scores := []float64{0, 1e-4, 2e-4, 2e-4, 3e-3, math.NaN(), math.Inf(1)}
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(300)
		plan := make([]bitTask, n)
		for i := range plan {
			plan[i] = bitTask{
				idx:   r.Intn(8),
				bit:   r.Intn(23),
				value: float64(i), // tells equal tasks apart
				score: scores[r.Intn(len(scores))],
			}
		}
		want := append([]bitTask(nil), plan...)
		refSortPlan(want)
		sortPlan(plan)
		for i := range plan {
			if plan[i].value != want[i].value {
				t.Fatalf("trial %d (%d tasks): position %d holds task %v, the reference %v",
					trial, n, i, plan[i].value, want[i].value)
			}
		}
	}
}

// TestChooseWidthAdaptsAndClamps: a fresh estimator votes at the full
// configured width; clean evidence narrows it to single reads (with
// periodic probes); the width never exceeds the clamp.
func TestChooseWidthAdaptsAndClamps(t *testing.T) {
	cfg := DefaultSchedulerConfig()
	sc := newScheduler(cfg, 3)
	st := &Stats{}

	if w := sc.chooseWidth(0.001, 0.003, st); w != 3 {
		t.Fatalf("fresh estimator chose width %d, want the configured 3", w)
	}
	// Feed clean unanimous votes until the flip-rate estimate collapses.
	for i := 0; i < 2000; i++ {
		sc.update(3, 3)
	}
	narrow := sc.chooseWidth(0.001, 0.003, st)
	if narrow != 1 {
		t.Fatalf("clean channel evidence left width at %d, want 1", narrow)
	}
	// The probe cadence must widen every ProbeInterval-th single read.
	probesBefore := st.ProbeReads
	wide := 0
	for i := 0; i < cfg.ProbeInterval*3; i++ {
		if w := sc.chooseWidth(0.001, 0.003, st); w == 3 {
			wide++
		} else if w != 1 {
			t.Fatalf("unexpected width %d", w)
		}
	}
	if wide != 3 || st.ProbeReads-probesBefore != 3 {
		t.Fatalf("got %d probes over 3 intervals (counter %d), want 3",
			wide, st.ProbeReads-probesBefore)
	}

	// A noisy channel keeps the vote wide for top-value bits.
	noisy := newScheduler(cfg, 5)
	for i := 0; i < 500; i++ {
		noisy.update(1, 3) // heavy disagreement
	}
	if w := noisy.chooseWidth(0.003, 0.003, st); w != 5 {
		t.Fatalf("noisy channel narrowed a top-value bit to %d", w)
	}
	// Width is always clamped to the configured EffectiveReadRepeats.
	one := newScheduler(cfg, 1)
	for i := 0; i < 10; i++ {
		if w := one.chooseWidth(0.001, 0.003, st); w != 1 {
			t.Fatalf("maxW=1 scheduler chose width %d", w)
		}
	}
}

// TestConvergedHoeffding: no exit before MinExitSamples, exit on a long
// unchanged streak, no exit while the change rate sits above threshold.
func TestConvergedHoeffding(t *testing.T) {
	sc := newScheduler(DefaultSchedulerConfig(), 1)
	if sc.converged(sc.cfg.MinExitSamples-1, 0) {
		t.Fatal("converged before MinExitSamples")
	}
	if !sc.converged(5000, 0) {
		t.Fatal("5000 unchanged reads must converge")
	}
	if sc.converged(5000, 5000/10) {
		t.Fatal("a 10% change rate must never converge below a 5% threshold")
	}
}

// schedCfg returns cfg with the scheduler enabled at defaults.
func schedCfg(cfg Config) Config {
	cfg.Schedule = DefaultSchedulerConfig()
	return cfg
}

func cloneMatchRate(clone, victim *transformer.Model, dev []transformer.Example) float64 {
	if len(dev) == 0 {
		return 0
	}
	n := 0
	for _, ex := range dev {
		if clone.Predict(ex.Tokens) == victim.Predict(ex.Tokens) {
			n++
		}
	}
	return float64(n) / float64(len(dev))
}

// TestScheduledNeverReadsMorePhysicalBits is the satellite property test:
// at equal StopMatchRate, the scheduled extraction never performs more
// physical bit reads than the index-ordered baseline — the adaptive width
// is clamped to EffectiveReadRepeats and early exit only removes reads.
// Checked on clean and silently-noisy channels across vote widths and
// victims.
func TestScheduledNeverReadsMorePhysicalBits(t *testing.T) {
	z := getZoo(t)
	for _, repeats := range []int{0, 3} {
		for _, noise := range []float64{0, 0.004} {
			for _, vi := range []int{0, 1} {
				victim := z.FineTuned[vi]
				run := func(cfg Config) (int64, float64) {
					oracle := sidechannel.NewOracle(victim.Model())
					if noise > 0 {
						oracle.SetNoise(noise, 0xabc)
					}
					ex := &Extractor{
						Pre:    victim.Pretrained.Model(),
						Oracle: oracle,
						Cfg:    cfg,
						Victim: victim.Model().Predict,
					}
					clone, st, err := ex.Run(victim.Task.Labels, victim.Dev)
					if err != nil {
						t.Fatal(err)
					}
					if st.PhysicalBitReads != oracle.BitReads {
						t.Fatalf("stats physical reads %d != oracle meter %d", st.PhysicalBitReads, oracle.BitReads)
					}
					return st.PhysicalBitReads, cloneMatchRate(clone, victim.Model(), victim.Dev)
				}
				cfg := DefaultConfig()
				cfg.ReadRepeats = repeats
				// Same (disabled) stop condition on both sides: the pre
				// backbone of these small victims already satisfies the
				// default StopMatchRate once the head is read, which would
				// reduce both runs to the identical head-only prefix.
				cfg.StopMatchRate = 2
				basePhys, baseMatch := run(cfg)
				schedPhys, schedMatch := run(schedCfg(cfg))
				if schedPhys > basePhys {
					t.Fatalf("repeats=%d noise=%v victim=%d: scheduled %d physical reads > baseline %d",
						repeats, noise, vi, schedPhys, basePhys)
				}
				if schedMatch < baseMatch-0.02 {
					t.Fatalf("repeats=%d noise=%v victim=%d: scheduled match %.3f fell below baseline %.3f",
						repeats, noise, vi, schedMatch, baseMatch)
				}
			}
		}
	}
}

// TestScheduledSavesOnFaultedChannel pins the headline acceptance number:
// on a faulted (visible-error) channel at the voted operating point, the
// scheduler reaches the same clone match rate with ≥1.5× fewer physical
// bit reads — faults are retried in the open, so the adaptive vote
// discovers there is nothing silent to vote away.
func TestScheduledSavesOnFaultedChannel(t *testing.T) {
	z := getZoo(t)
	victim := z.FineTuned[0]
	plan := &sidechannel.FaultPlan{
		Seed: 7, TransientRate: 0.02, TransientRecovery: 2,
		StuckRate: 0.0002, OutageRate: 0.0005, OutagePeriod: 2000,
	}
	run := func(cfg Config) (*Stats, float64) {
		oracle := sidechannel.NewOracle(victim.Model())
		oracle.SetFaultPlan(plan.ForVictim(victim.Name))
		ex := &Extractor{
			Pre:    victim.Pretrained.Model(),
			Oracle: oracle,
			Cfg:    cfg,
			Victim: victim.Model().Predict,
		}
		clone, st, err := ex.Run(victim.Task.Labels, victim.Dev)
		if err != nil {
			t.Fatal(err)
		}
		return st, cloneMatchRate(clone, victim.Model(), victim.Dev)
	}
	cfg := DefaultConfig()
	cfg.ReadRepeats = 3
	cfg.StopMatchRate = 2 // compare full extractions, not the head-only prefix
	baseSt, baseMatch := run(cfg)
	schedSt, schedMatch := run(schedCfg(cfg))

	if schedMatch < baseMatch {
		t.Fatalf("scheduled match %.4f < baseline %.4f", schedMatch, baseMatch)
	}
	ratio := float64(baseSt.PhysicalBitReads) / float64(schedSt.PhysicalBitReads)
	if ratio < 1.5 {
		t.Fatalf("physical-read ratio %.2f (%d vs %d), want ≥ 1.5",
			ratio, baseSt.PhysicalBitReads, schedSt.PhysicalBitReads)
	}
	if schedSt.MeanVoteWidth() >= float64(cfg.EffectiveReadRepeats()) {
		t.Fatalf("mean vote width %.2f never adapted below the configured %d",
			schedSt.MeanVoteWidth(), cfg.EffectiveReadRepeats())
	}
}

// TestScheduledRunDeterministic: two identical scheduled runs are
// byte-identical — clone, Stats, and oracle meters.
func TestScheduledRunDeterministic(t *testing.T) {
	z := getZoo(t)
	victim := z.FineTuned[2]
	run := func() (*transformer.Model, *Stats, *sidechannel.Oracle) {
		oracle := sidechannel.NewOracle(victim.Model())
		oracle.SetNoise(0.005, 0x5eed5)
		cfg := schedCfg(DefaultConfig())
		cfg.ReadRepeats = 3
		cfg.StopMatchRate = 2 // full extraction — exercise the scheduled path
		ex := &Extractor{
			Pre:    victim.Pretrained.Model(),
			Oracle: oracle,
			Cfg:    cfg,
			Victim: victim.Model().Predict,
		}
		clone, st, err := ex.Run(victim.Task.Labels, victim.Dev)
		if err != nil {
			t.Fatal(err)
		}
		return clone, st, oracle
	}
	cloneA, stA, oraA := run()
	cloneB, stB, oraB := run()
	if !reflect.DeepEqual(stA, stB) {
		t.Fatalf("stats diverge:\n%+v\n%+v", stA, stB)
	}
	if oraA.BitReads != oraB.BitReads || oraA.Clock() != oraB.Clock() {
		t.Fatal("oracle meters diverge between identical scheduled runs")
	}
	pa, pb := cloneA.Params(), cloneB.Params()
	for i := range pa {
		for j := range pa[i].Value.Data {
			if math.Float32bits(pa[i].Value.Data[j]) != math.Float32bits(pb[i].Value.Data[j]) {
				t.Fatalf("clone tensor %s differs at %d", pa[i].Name, j)
			}
		}
	}
}

// TestScheduledCheckpointResumeGolden is TestCheckpointResumeGolden under
// the information-ordered scheduler: interrupt by read budget, resume,
// and demand byte-identity — clone, Stats (including the scheduler
// accounting), oracle meters, and obs counters. The estimator state rides
// in the checkpoint; without it the resumed run's vote widths, and hence
// the whole channel sequence, would drift.
func TestScheduledCheckpointResumeGolden(t *testing.T) {
	z := getZoo(t)
	victim := z.FineTuned[0]
	plan := &sidechannel.FaultPlan{Seed: 9, TransientRate: 0.02, StuckRate: 0.0003}
	cfg := schedCfg(DefaultConfig())
	cfg.ReadRepeats = 3
	cfg.StopMatchRate = 2 // full extraction — exercise the scheduled path

	newEx := func(reg *obs.Registry, path string, resume bool, budget int64) (*Extractor, *sidechannel.Oracle) {
		oracle := sidechannel.NewOracle(victim.Model())
		oracle.SetObs(reg)
		oracle.SetNoise(0.01, 0xfeed)
		oracle.SetFaultPlan(plan)
		return &Extractor{
			Pre:            victim.Pretrained.Model(),
			Oracle:         oracle,
			Cfg:            cfg,
			Victim:         victim.Model().Predict,
			Obs:            reg,
			CheckpointPath: path,
			Resume:         resume,
			ReadBudget:     budget,
		}, oracle
	}

	regA := obs.New()
	exA, oraA := newEx(regA, "", false, 0)
	cloneA, stA, err := exA.Run(victim.Task.Labels, victim.Dev)
	if err != nil {
		t.Fatal(err)
	}
	if stA.VoteWidthN == 0 {
		t.Fatal("scheduler never chose a width — the scheduled path did not run")
	}
	totalAttempts := oraA.Attempts()
	if totalAttempts < 4 {
		t.Fatalf("reference run too small to interrupt (%d attempts)", totalAttempts)
	}

	path := filepath.Join(t.TempDir(), "victim.ckpt")
	regB := obs.New()
	exB, oraB := newEx(regB, path, false, totalAttempts/2)
	_, _, err = exB.Run(victim.Task.Labels, victim.Dev)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("want ErrInterrupted, got %v", err)
	}
	if oraB.BitReads == 0 {
		t.Fatal("interrupted run made no progress")
	}
	paidBefore := oraB.BitReads

	regC := obs.New()
	exC, oraC := newEx(regC, path, true, 0)
	cloneC, stC, err := exC.Run(victim.Task.Labels, victim.Dev)
	if err != nil {
		t.Fatal(err)
	}
	if oraC.BitReads != oraA.BitReads || oraC.FaultedReads != oraA.FaultedReads {
		t.Fatalf("resumed meters (reads %d, faults %d) != uninterrupted (%d, %d)",
			oraC.BitReads, oraC.FaultedReads, oraA.BitReads, oraA.FaultedReads)
	}
	if fresh := oraC.BitReads - paidBefore; fresh <= 0 || fresh >= oraA.BitReads {
		t.Fatalf("resume did not split the work (%d fresh of %d)", fresh, oraA.BitReads)
	}
	if !reflect.DeepEqual(stA, stC) {
		t.Fatalf("stats diverge:\nuninterrupted: %+v\nresumed:       %+v", stA, stC)
	}
	pa, pc := cloneA.Params(), cloneC.Params()
	for i := range pa {
		for j := range pa[i].Value.Data {
			if pa[i].Value.Data[j] != pc[i].Value.Data[j] {
				t.Fatalf("clone tensor %s differs at %d", pa[i].Name, j)
			}
		}
	}
	snapA, snapC := regA.Snapshot(), regC.Snapshot()
	if !reflect.DeepEqual(snapA.Counters, snapC.Counters) {
		t.Fatalf("counters diverge:\nuninterrupted: %v\nresumed:       %v", snapA.Counters, snapC.Counters)
	}
	if !reflect.DeepEqual(snapA.Gauges, snapC.Gauges) {
		t.Fatalf("gauges diverge:\nuninterrupted: %v\nresumed:       %v", snapA.Gauges, snapC.Gauges)
	}
}

// TestScheduledEarlyExitElides: on a victim whose backbone fine-tuning
// barely moved, the posterior converges and elides planned bits — and the
// elision is visible in Stats.
func TestScheduledEarlyExitElides(t *testing.T) {
	// A victim equal to its baseline everywhere: every read bit matches,
	// so every tensor bigger than MinExitSamples converges.
	pre, _ := smallPair()
	victim := pre
	oracle := sidechannel.NewOracle(victim)
	cfg := schedCfg(DefaultConfig())
	// These tensors are small: loosen the posterior so the Hoeffding
	// slack (≈0.27 at 32 reads) can clear the threshold.
	cfg.Schedule.MinExitSamples = 32
	cfg.Schedule.ExitChangeRate = 0.3
	ex := &Extractor{Pre: pre, Oracle: oracle, Cfg: cfg}
	_, st, err := ex.Run(victim.Config.Labels, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.TensorsConverged == 0 || st.BitsElided == 0 {
		t.Fatalf("identical victim produced no early exits: %+v", st)
	}
	if st.BitsChecked+st.BitsElided == 0 {
		t.Fatal("no bits planned at all")
	}
}

// TestScheduledStuckBitsKeepBaseline mirrors the baseline degradation
// semantics on the scheduled path: stuck cells keep baseline bits and are
// accounted, without failing the run.
func TestScheduledStuckBitsKeepBaseline(t *testing.T) {
	pre, victim := smallPair()
	oracle := sidechannel.NewOracle(victim)
	const target = "block1.wq"
	oracle.SetFaultPlan(&sidechannel.FaultPlan{
		StuckRanges: []sidechannel.StuckRange{{Param: target, Bit: -1}},
	})
	ex := &Extractor{Pre: pre, Oracle: oracle, Cfg: schedCfg(DefaultConfig())}
	clone, st, err := ex.Run(victim.Config.Labels, nil)
	if err != nil {
		t.Fatalf("stuck cells must degrade, not fail: %v", err)
	}
	if st.BitsDegraded == 0 || st.WeightsDegraded == 0 {
		t.Fatalf("no degradation recorded: %+v", st)
	}
	var got, want []float32
	for _, p := range clone.Params() {
		if p.Name == target {
			got = p.Value.Data
		}
	}
	for _, p := range pre.Params() {
		if p.Name == target {
			want = p.Value.Data
		}
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s[%d] diverged from baseline despite stuck cells", target, i)
		}
	}
}

// TestSchedulerStateRoundTrip: the estimator state must survive the
// checkpoint log's round trip field by field.
func TestSchedulerStateRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.ckpt")
	in := &Checkpoint{
		Sched: SchedulerState{VoteReads: 123, MinorityReads: 7, SinceProbe: 41},
	}
	writeCheckpoint(t, path, in)
	out, err := readCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if out.Sched != in.Sched {
		t.Fatalf("scheduler state %+v round-tripped to %+v", in.Sched, out.Sched)
	}
}

// TestFractionBitRoundTrip guards the raw-index arithmetic the scheduler
// shares with Algorithm 1: fraction bit k (MSB-first) is raw bit
// FractionBits-k.
func TestFractionBitRoundTrip(t *testing.T) {
	w := float32(0.40625)
	for k := 1; k <= ieee754.FractionBits; k++ {
		raw := ieee754.FractionBits - k
		if ieee754.Bit(w, raw) != ieee754.FractionBit(w, k) {
			t.Fatalf("bit k=%d raw=%d disagree", k, raw)
		}
	}
}
