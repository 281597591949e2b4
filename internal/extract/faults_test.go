package extract

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"decepticon/internal/ieee754"
	"decepticon/internal/obs"
	"decepticon/internal/sidechannel"
	"decepticon/internal/transformer"
)

// TestNonFiniteBaselineNeverRead is the regression test for the
// non-finite guard: a NaN/±Inf baseline weight (a corrupted identified
// model) must be copied unread — gap() against it defeats every
// place-value comparison, and the old code burned hammer rounds reading
// bits into garbage.
func TestNonFiniteBaselineNeverRead(t *testing.T) {
	cfg := DefaultConfig()
	for _, base := range []float32{
		float32(math.NaN()),
		float32(math.Inf(1)),
		float32(math.Inf(-1)),
	} {
		reads := 0
		clone, checked := cfg.ExtractWeight(base, func(bit int) int {
			reads++
			return 1
		})
		if reads != 0 || len(checked) != 0 {
			t.Fatalf("base %v: %d reads, checked %v — non-finite baselines must stay unread",
				base, reads, checked)
		}
		if math.Float32bits(clone) != math.Float32bits(base) {
			t.Fatalf("base %v: clone %v not a bit-identical copy", base, clone)
		}
		// The quantized path shares the guard.
		qReads := 0
		_, qChecked := cfg.ExtractWeightFormat(base, ieee754.BFloat16, func(bit int) int {
			qReads++
			return 1
		})
		if qReads != 0 || len(qChecked) != 0 {
			t.Fatalf("base %v: quantized path read %d bits", base, qReads)
		}
	}
}

// TestEffectiveReadRepeatsSurfaced pins the even-ReadRepeats rounding
// into the public accounting: a configured even vote width silently pays
// one extra read per bit, and Stats must say so.
func TestEffectiveReadRepeatsSurfaced(t *testing.T) {
	cases := []struct{ configured, effective int }{
		{0, 1}, {1, 1}, {2, 3}, {3, 3}, {4, 5}, {5, 5},
	}
	for _, c := range cases {
		cfg := DefaultConfig()
		cfg.ReadRepeats = c.configured
		if got := cfg.EffectiveReadRepeats(); got != c.effective {
			t.Fatalf("ReadRepeats=%d: effective %d, want %d", c.configured, got, c.effective)
		}
	}

	z := getZoo(t)
	victim := z.FineTuned[0]
	cfg := DefaultConfig()
	cfg.ReadRepeats = 2
	ex := &Extractor{
		Pre:    victim.Pretrained.Model(),
		Oracle: sidechannel.NewOracle(victim.Model()),
		Cfg:    cfg,
	}
	_, st, err := ex.Run(victim.Task.Labels, victim.Dev)
	if err != nil {
		t.Fatal(err)
	}
	if st.EffectiveReadRepeats != 3 {
		t.Fatalf("stats effective repeats %d, want 3 for configured 2", st.EffectiveReadRepeats)
	}
	// The reconciliation the report printer relies on: physical cost is
	// exactly effective-repeats × logical, never configured × logical.
	if st.PhysicalBitReads != int64(st.EffectiveReadRepeats)*st.LogicalBitsRead() {
		t.Fatalf("physical %d != effective %d × logical %d",
			st.PhysicalBitReads, st.EffectiveReadRepeats, st.LogicalBitsRead())
	}
}

// smallPair builds a deterministic (pre, victim) pair sharing one
// architecture, for fault tests that need full control over tensor names
// without the zoo's training cost.
func smallPair() (*transformer.Model, *transformer.Model) {
	cfg := transformer.Config{
		Name: "pair", Layers: 2, Hidden: 8, Heads: 2, FFN: 16,
		Vocab: 12, MaxSeq: 6, Labels: 3,
	}
	return transformer.New(cfg, 1), transformer.New(cfg, 2)
}

// TestStuckBitsDegradeToBaseline: a tensor whose cells are stuck keeps
// its pre-trained baseline bits, bit by bit, while the run completes and
// accounts for every degraded position.
func TestStuckBitsDegradeToBaseline(t *testing.T) {
	pre, victim := smallPair()
	oracle := sidechannel.NewOracle(victim)
	const target = "block1.wq"
	oracle.SetFaultPlan(&sidechannel.FaultPlan{
		StuckRanges: []sidechannel.StuckRange{{Param: target, Bit: -1}},
	})
	ex := &Extractor{Pre: pre, Oracle: oracle, Cfg: DefaultConfig()}
	clone, st, err := ex.Run(victim.Config.Labels, nil)
	if err != nil {
		t.Fatalf("stuck cells must degrade, not fail the run: %v", err)
	}
	if st.BitsDegraded == 0 || st.WeightsDegraded == 0 {
		t.Fatalf("no degradation recorded: %+v", st)
	}
	if st.TensorsDegraded != 0 {
		t.Fatal("bit-level stuck cells must not degrade whole tensors")
	}
	if st.Coverage() >= 1 {
		t.Fatalf("coverage %v must drop below 1 under degradation", st.Coverage())
	}
	// Every weight of the stuck tensor equals the baseline: no bit of it
	// was readable, so Algorithm 1 must have kept every baseline bit.
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
	if got == nil || want == nil {
		t.Fatalf("tensor %q missing from clone or baseline", target)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s[%d]: %v != baseline %v despite stuck cells", target, i, got[i], want[i])
		}
	}
}

// TestPermanentOutageDegradesTensor: a permanently dead region makes the
// rest of that tensor fall back to the baseline wholesale — graceful
// degradation at tensor granularity, recorded by name.
func TestPermanentOutageDegradesTensor(t *testing.T) {
	pre, victim := smallPair()
	oracle := sidechannel.NewOracle(victim)
	const target = "block0.w1"
	oracle.SetFaultPlan(&sidechannel.FaultPlan{
		Outages: []sidechannel.Outage{{Param: target}}, // To == 0: permanent
	})
	ex := &Extractor{Pre: pre, Oracle: oracle, Cfg: DefaultConfig()}
	clone, st, err := ex.Run(victim.Config.Labels, nil)
	if err != nil {
		t.Fatalf("a dead region must degrade, not fail the run: %v", err)
	}
	if st.TensorsDegraded != 1 || len(st.DegradedTensors) != 1 || st.DegradedTensors[0] != target {
		t.Fatalf("degraded tensors %v (count %d), want exactly %q",
			st.DegradedTensors, st.TensorsDegraded, target)
	}
	for _, p := range clone.Params() {
		if p.Name != target {
			continue
		}
		for _, q := range pre.Params() {
			if q.Name != target {
				continue
			}
			for i := range p.Value.Data {
				if p.Value.Data[i] != q.Value.Data[i] {
					t.Fatalf("%s[%d] not degraded to baseline", target, i)
				}
			}
		}
	}
	if st.ReadFaults == 0 {
		t.Fatal("outage attempts must be accounted as read faults")
	}
	if st.ReadFaults != oracle.FaultedReads {
		t.Fatalf("stats read faults %d != oracle meter %d", st.ReadFaults, oracle.FaultedReads)
	}
}

// TestOutageMidTensorKeepsReadBits pins the single degrade rule under
// Algorithm 1's index order, for a selective tensor and for the head: a
// region outage starting partway through a tensor's reads ends them
// there, but every bit read before it stays in the clone — including the
// read bits of the weight the outage cut — the logical bit counters count
// them, and only weights with an unread planned bit count as degraded.
// The flight recorder's degrade note names the first unread weight and
// the count of unread ones, also when weights after the cut plan no bits.
func TestOutageMidTensorKeepsReadBits(t *testing.T) {
	pre, victim := smallPair()
	cfg := DefaultConfig()
	base, truth := indexParams(pre), indexParams(victim)
	extract := func(plan *sidechannel.FaultPlan) (map[string][]float32, *Stats, []obs.FlightEvent) {
		oracle := sidechannel.NewOracle(victim)
		oracle.SetFaultPlan(plan)
		reg := obs.New()
		flight := obs.NewFlightRecorder(0)
		reg.SetFlight(flight)
		ex := &Extractor{Pre: pre, Oracle: oracle, Cfg: cfg, Obs: reg}
		clone, st, err := ex.Run(victim.Config.Labels, nil)
		if err != nil {
			t.Fatal(err)
		}
		return indexParams(clone), st, flight.Events()
	}
	_, clean, _ := extract(nil)

	// On a clean channel at one read per bit the head is read first, 32
	// reads per weight, then the last encoder layer.
	var head, sel string
	var headReads int64
	for _, p := range victim.Params() {
		switch {
		case p.IsHead:
			if head == "" {
				head = p.Name
			}
			headReads += 32 * int64(len(p.Value.Data))
		case sel == "" && p.Layer == victim.Layers-1:
			sel = p.Name
		}
	}
	n := len(truth[head])
	for _, c := range []struct {
		target string
		isHead bool
		base   []float32
		plan   []bitTask
		c0     int64 // channel clock before the tensor's first read
	}{
		{sel, false, base[sel], planTensor(cfg, base[sel], 0, false), headReads},
		{head, true, make([]float32, n), planFull(n), 0},
	} {
		truth := truth[c.target]
		// Cut at a bit whose predecessor in the plan belongs to the same
		// weight and differs from the baseline, a third of the way in or
		// later.
		cut := -1
		for ti := len(c.plan) / 3; ti < len(c.plan) && cut < 0; ti++ {
			prev := c.plan[ti-1]
			if c.plan[ti].idx == prev.idx &&
				ieee754.Bit(truth[prev.idx], prev.bit) != ieee754.Bit(c.base[prev.idx], prev.bit) {
				cut = ti
			}
		}
		if cut < 0 {
			t.Fatalf("%s: no partly readable weight to cut at", c.target)
		}

		clone, st, events := extract(&sidechannel.FaultPlan{
			Outages: []sidechannel.Outage{{Param: c.target, From: c.c0 + int64(cut) + 1}}, // permanent
		})
		if st.TensorsDegraded != 1 || len(st.DegradedTensors) != 1 || st.DegradedTensors[0] != c.target {
			t.Fatalf("degraded tensors %v, want exactly %q", st.DegradedTensors, c.target)
		}
		want := append([]float32(nil), c.base...)
		unread := map[int]bool{}
		for ti, task := range c.plan {
			if ti < cut {
				want[task.idx] = ieee754.SetBit(want[task.idx], task.bit, ieee754.Bit(truth[task.idx], task.bit))
			} else {
				unread[task.idx] = true
			}
		}
		for i := range want {
			if got := clone[c.target][i]; math.Float32bits(got) != math.Float32bits(want[i]) {
				t.Fatalf("%s[%d] = %v, want %v (bits read before the outage kept, the rest baseline)",
					c.target, i, got, want[i])
			}
		}
		if st.WeightsDegraded != len(unread) {
			t.Fatalf("%s: weights degraded %d, want the %d with an unread planned bit",
				c.target, st.WeightsDegraded, len(unread))
		}
		var notes []map[string]string
		for _, ev := range events {
			if ev.Kind == "degrade" {
				notes = append(notes, ev.Attrs)
			}
		}
		// Both plans run in index order, so the cut's weight is the first
		// unread one.
		note := map[string]string{"from": fmt.Sprint(c.plan[cut].idx), "weights": fmt.Sprint(len(unread))}
		if len(notes) != 1 || !reflect.DeepEqual(notes[0], note) {
			t.Fatalf("%s: degrade notes %v, want one %v", c.target, notes, note)
		}
		lost := int64(len(c.plan) - cut)
		wantHead, wantSel := clean.HeadBitsRead, clean.BitsChecked
		if c.isHead {
			wantHead -= lost
		} else {
			wantSel -= lost
		}
		if st.HeadBitsRead != wantHead || st.BitsChecked != wantSel {
			t.Fatalf("%s: logical bits head %d / selective %d, want %d / %d",
				c.target, st.HeadBitsRead, st.BitsChecked, wantHead, wantSel)
		}
	}
}

// TestRetriesRideOutTransients: under a purely transient fault plan the
// retry/backoff stack recovers every bit — the clone is byte-identical to
// a fault-free extraction, at the price of retries and backoff rounds.
func TestRetriesRideOutTransients(t *testing.T) {
	pre, victim := smallPair()
	run := func(plan *sidechannel.FaultPlan) (*transformer.Model, *Stats, *sidechannel.Oracle) {
		oracle := sidechannel.NewOracle(victim)
		oracle.SetFaultPlan(plan)
		ex := &Extractor{Pre: pre, Oracle: oracle, Cfg: DefaultConfig()}
		clone, st, err := ex.Run(victim.Config.Labels, nil)
		if err != nil {
			t.Fatal(err)
		}
		return clone, st, oracle
	}
	clean, _, _ := run(nil)
	faulted, st, oracle := run(&sidechannel.FaultPlan{Seed: 5, TransientRate: 0.1, TransientRecovery: 2})

	if st.Retries == 0 || st.ReadFaults == 0 || st.BackoffRounds == 0 {
		t.Fatalf("transient plan exercised no retries: %+v", st)
	}
	// Backoff waits in simulated time: the clock outruns the attempt count.
	if oracle.Clock() <= oracle.BitReads+oracle.FaultedReads {
		t.Fatalf("clock %d did not advance past the %d attempts", oracle.Clock(), oracle.BitReads+oracle.FaultedReads)
	}
	if st.BitsDegraded != 0 || st.TensorsDegraded != 0 {
		// With recovery=2 < MaxAttempts=8 a transient run always ends
		// within one bit's retry budget unless re-triggered repeatedly.
		t.Logf("note: %d bits / %d tensors degraded under transients", st.BitsDegraded, st.TensorsDegraded)
	}
	cp, fp := clean.Params(), faulted.Params()
	for i := range cp {
		for j := range cp[i].Value.Data {
			if st.BitsDegraded == 0 && cp[i].Value.Data[j] != fp[i].Value.Data[j] {
				t.Fatalf("transient faults corrupted %s[%d]", cp[i].Name, j)
			}
		}
	}
}

// TestDeadChannelDegradesGracefully: a channel where every attempt faults
// (TransientRate=1 never yields a successful read) must still complete —
// everything degrades, nothing is extracted, nothing is charged as a
// successful bit read.
func TestDeadChannelDegradesGracefully(t *testing.T) {
	pre, victim := smallPair()
	oracle := sidechannel.NewOracle(victim)
	oracle.SetFaultPlan(&sidechannel.FaultPlan{Seed: 1, TransientRate: 1})
	ex := &Extractor{Pre: pre, Oracle: oracle, Cfg: DefaultConfig()}
	_, st, err := ex.Run(victim.Config.Labels, nil)
	if err != nil {
		t.Fatalf("dead channel must degrade, not fail: %v", err)
	}
	if oracle.BitReads != 0 {
		t.Fatalf("no read can succeed, yet %d were metered", oracle.BitReads)
	}
	if st.LogicalBitsRead() != 0 {
		t.Fatalf("logical reads %d on a dead channel", st.LogicalBitsRead())
	}
	if st.Escalations == 0 {
		t.Fatal("exhausted retries must escalate before degrading")
	}
	if st.Coverage() >= 1 {
		t.Fatalf("coverage %v on a dead channel", st.Coverage())
	}
	if st.ReadFaults != oracle.FaultedReads || st.ReadFaults == 0 {
		t.Fatalf("fault accounting: stats %d, oracle %d", st.ReadFaults, oracle.FaultedReads)
	}
}

// TestCheckpointResumeGolden is the tentpole acceptance test: an
// extraction interrupted by its read budget and resumed from the
// checkpoint must be byte-identical to an uninterrupted run — clone
// weights, the full Stats accounting, the oracle meters, and the obs
// counter registry — while re-paying zero hammer rounds.
func TestCheckpointResumeGolden(t *testing.T) {
	z := getZoo(t)
	victim := z.FineTuned[0]
	plan := &sidechannel.FaultPlan{Seed: 9, TransientRate: 0.02, StuckRate: 0.0003}
	cfg := DefaultConfig()
	cfg.ReadRepeats = 3

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

	// Reference: one uninterrupted run.
	regA := obs.New()
	exA, oraA := newEx(regA, "", false, 0)
	cloneA, stA, err := exA.Run(victim.Task.Labels, victim.Dev)
	if err != nil {
		t.Fatal(err)
	}
	totalAttempts := oraA.BitReads + oraA.FaultedReads
	if totalAttempts < 4 {
		t.Fatalf("reference run too small to interrupt (%d attempts)", totalAttempts)
	}

	// Interrupted run: the budget kills it partway through.
	path := filepath.Join(t.TempDir(), "victim.ckpt")
	regB := obs.New()
	exB, oraB := newEx(regB, path, false, totalAttempts/2)
	_, _, err = exB.Run(victim.Task.Labels, victim.Dev)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("budget %d of %d attempts: want ErrInterrupted, got %v", totalAttempts/2, totalAttempts, err)
	}
	if oraB.BitReads == 0 {
		t.Fatal("interrupted run made no progress before the budget")
	}
	paidBefore := oraB.BitReads

	// Resumed run: same victim, plan, noise seed — fresh process state.
	regC := obs.New()
	exC, oraC := newEx(regC, path, true, 0)
	cloneC, stC, err := exC.Run(victim.Task.Labels, victim.Dev)
	if err != nil {
		t.Fatal(err)
	}

	// Zero re-paid hammer rounds: interrupted + fresh resumed reads add up
	// to exactly the uninterrupted total.
	if oraC.BitReads != oraA.BitReads || oraC.FaultedReads != oraA.FaultedReads {
		t.Fatalf("resumed meters (reads %d, faults %d) != uninterrupted (%d, %d)",
			oraC.BitReads, oraC.FaultedReads, oraA.BitReads, oraA.FaultedReads)
	}
	if fresh := oraC.BitReads - paidBefore; fresh <= 0 || fresh >= oraA.BitReads {
		t.Fatalf("resumed run paid %d fresh reads of %d total — resume did not actually split the work",
			fresh, oraA.BitReads)
	}

	// The full Stats accounting is byte-identical.
	if !reflect.DeepEqual(stA, stC) {
		t.Fatalf("stats diverge:\nuninterrupted: %+v\nresumed:       %+v", stA, stC)
	}

	// Clone weights are byte-identical.
	pa, pc := cloneA.Params(), cloneC.Params()
	for i := range pa {
		for j := range pa[i].Value.Data {
			if pa[i].Value.Data[j] != pc[i].Value.Data[j] {
				t.Fatalf("clone tensor %s differs at %d", pa[i].Name, j)
			}
		}
	}

	// The obs registries reconcile byte-for-byte (counters and gauges;
	// timers are wall-clock by definition).
	snapA, snapC := regA.Snapshot(), regC.Snapshot()
	if !reflect.DeepEqual(snapA.Counters, snapC.Counters) {
		t.Fatalf("counters diverge:\nuninterrupted: %v\nresumed:       %v", snapA.Counters, snapC.Counters)
	}
	if !reflect.DeepEqual(snapA.Gauges, snapC.Gauges) {
		t.Fatalf("gauges diverge:\nuninterrupted: %v\nresumed:       %v", snapA.Gauges, snapC.Gauges)
	}

	// Resuming a *completed* checkpoint short-circuits: stored result,
	// zero new channel traffic, same registry.
	regD := obs.New()
	exD, oraD := newEx(regD, path, true, 0)
	cloneD, stD, err := exD.Run(victim.Task.Labels, victim.Dev)
	if err != nil {
		t.Fatal(err)
	}
	if oraD.BitReads != oraA.BitReads || oraD.FaultedReads != oraA.FaultedReads {
		t.Fatal("re-resuming a complete checkpoint touched the channel")
	}
	if !reflect.DeepEqual(stA, stD) {
		t.Fatal("re-resumed stats diverge from the uninterrupted run")
	}
	pd := cloneD.Params()
	for i := range pa {
		for j := range pa[i].Value.Data {
			if pa[i].Value.Data[j] != pd[i].Value.Data[j] {
				t.Fatalf("re-resumed clone tensor %s differs at %d", pa[i].Name, j)
			}
		}
	}
	if snapD := regD.Snapshot(); !reflect.DeepEqual(snapA.Counters, snapD.Counters) {
		t.Fatalf("re-resumed counters diverge: %v vs %v", snapA.Counters, snapD.Counters)
	}
}

// countdownCtx is a context whose Err flips to context.Canceled after a
// fixed number of Err calls — a deterministic stand-in for a
// mid-extraction Ctrl-C that always lands at the same probe. Done
// returns a non-nil (never-closed) channel so RunContext takes the
// cancellable path and binds the oracle's per-read check.
type countdownCtx struct {
	context.Context
	mu        sync.Mutex
	remaining int64
	done      chan struct{}
}

func newCountdownCtx(remaining int64) *countdownCtx {
	return &countdownCtx{
		Context:   context.Background(),
		remaining: remaining,
		done:      make(chan struct{}),
	}
}

func (c *countdownCtx) Done() <-chan struct{} { return c.done }

func (c *countdownCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.remaining <= 0 {
		return context.Canceled
	}
	c.remaining--
	return nil
}

// TestCancelResumeGolden is TestCheckpointResumeGolden's twin for the
// context door: an extraction cancelled mid-run must checkpoint and
// surface ErrInterrupted exactly like a read-budget exhaustion, and the
// resumed run must be byte-identical to an uninterrupted one — clone
// weights, Stats, oracle meters, and obs counters. Unlike the budget
// (checked only at tensor boundaries), cancellation can land mid-tensor;
// the boundary snapshot stands and the resumed run re-pays only that
// tensor's partial work, which must not perturb the final state.
func TestCancelResumeGolden(t *testing.T) {
	z := getZoo(t)
	victim := z.FineTuned[0]
	plan := &sidechannel.FaultPlan{Seed: 9, TransientRate: 0.02, StuckRate: 0.0003}
	cfg := DefaultConfig()
	cfg.ReadRepeats = 3

	newEx := func(reg *obs.Registry, path string, resume bool) (*Extractor, *sidechannel.Oracle) {
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
		}, oracle
	}

	// Reference: one uninterrupted run.
	regA := obs.New()
	exA, oraA := newEx(regA, "", false)
	cloneA, stA, err := exA.Run(victim.Task.Labels, victim.Dev)
	if err != nil {
		t.Fatal(err)
	}
	totalAttempts := oraA.BitReads + oraA.FaultedReads
	if totalAttempts < 4 {
		t.Fatalf("reference run too small to cancel (%d attempts)", totalAttempts)
	}

	// Cancelled run: the countdown fires after roughly half the probes.
	path := filepath.Join(t.TempDir(), "victim.ckpt")
	regB := obs.New()
	exB, oraB := newEx(regB, path, false)
	_, _, err = exB.RunContext(newCountdownCtx(totalAttempts/2), victim.Task.Labels, victim.Dev)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("cancellation must surface as ErrInterrupted, got %v", err)
	}
	if oraB.BitReads == 0 {
		t.Fatal("cancelled run made no progress before the countdown")
	}
	if oraB.BitReads+oraB.FaultedReads >= totalAttempts {
		t.Fatalf("cancelled run paid all %d attempts — the countdown never fired mid-run", totalAttempts)
	}

	// Resumed run: fresh process state, uncancelled context.
	regC := obs.New()
	exC, oraC := newEx(regC, path, true)
	cloneC, stC, err := exC.Run(victim.Task.Labels, victim.Dev)
	if err != nil {
		t.Fatal(err)
	}

	// The resumed meters land exactly on the uninterrupted totals: the
	// checkpoint restored the boundary state and the replayed segment is
	// deterministic.
	if oraC.BitReads != oraA.BitReads || oraC.FaultedReads != oraA.FaultedReads {
		t.Fatalf("resumed meters (reads %d, faults %d) != uninterrupted (%d, %d)",
			oraC.BitReads, oraC.FaultedReads, oraA.BitReads, oraA.FaultedReads)
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

// TestCancelledReadChargesNoMeter pins the property the resume identity
// rests on: an oracle read aborted by cancellation meters nothing and
// advances no clock, so replaying it is free.
func TestCancelledReadChargesNoMeter(t *testing.T) {
	_, victim := smallPair()
	oracle := sidechannel.NewOracle(victim)
	oracle.Bind(newCountdownCtx(0)) // already expired
	if _, err := oracle.ReadBit("block0.wq", 0, 30); !errors.Is(err, context.Canceled) {
		t.Fatalf("ReadBit = %v, want context.Canceled", err)
	}
	if oracle.BitReads != 0 || oracle.FaultedReads != 0 || oracle.Clock() != 0 {
		t.Fatalf("aborted read metered: reads=%d faults=%d clock=%d",
			oracle.BitReads, oracle.FaultedReads, oracle.Clock())
	}
}

// TestCheckpointShapeGuard: a checkpoint written for one extraction shape
// must be refused by a resume against another — silently mixing shapes
// would corrupt the clone — and so must a log that is corrupt rather
// than torn.
func TestCheckpointShapeGuard(t *testing.T) {
	pre, victim := smallPair()
	path := filepath.Join(t.TempDir(), "shape.ckpt")
	ex := &Extractor{
		Pre:            pre,
		Oracle:         sidechannel.NewOracle(victim),
		Cfg:            DefaultConfig(),
		CheckpointPath: path,
	}
	if _, _, err := ex.Run(victim.Config.Labels, nil); err != nil {
		t.Fatal(err)
	}
	ex2 := &Extractor{
		Pre:            pre,
		Oracle:         sidechannel.NewOracle(victim),
		Cfg:            DefaultConfig(),
		CheckpointPath: path,
		Resume:         true,
	}
	good, err := readCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	goodLog, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	head := good.Tensors[0]
	if head.Name != "head_w" {
		t.Fatalf("first recorded tensor %q, want head_w", head.Name)
	}
	// spoilt is the good fold, edited, as a one-record log; edited is the
	// good log with its bytes edited.
	spoilt := func(spoil func(ck *Checkpoint)) []byte {
		bad := *good
		bad.Tensors = append([]checkpointTensor(nil), good.Tensors...)
		spoil(&bad)
		return logOf(t, &bad)
	}
	edited := func(edit func(log []byte) []byte) []byte {
		return edit(append([]byte(nil), goodLog...))
	}
	for _, c := range []struct {
		what string
		log  []byte
	}{
		{"a different victim shape", spoilt(func(ck *Checkpoint) { ck.NumLabels++ })},
		{"another checkpoint version", edited(func(log []byte) []byte { log[len(logMagic)]++; return log })},
		// A schedule position outside [0, len(schedule)] names no entry.
		{"a negative schedule position", spoilt(func(ck *Checkpoint) { ck.Complete, ck.LayersDone = false, -3 })},
		{"a schedule position past its end", spoilt(func(ck *Checkpoint) { ck.Complete, ck.LayersDone = false, 99 })},
		// A repeated tensor would be credited again: progress past its plan.
		{"a tensor listed twice", spoilt(func(ck *Checkpoint) { ck.Tensors = append(ck.Tensors, head, head, head) })},
		{"a tensor recorded again by a later record", edited(func(log []byte) []byte {
			frame, err := encodeRecord(&Checkpoint{Complete: true, LayersDone: good.LayersDone, Tensors: []checkpointTensor{head},
				Stats: good.Stats, Channel: good.Channel, NumLabels: good.NumLabels, LayersTotal: good.LayersTotal})
			if err != nil {
				t.Fatal(err)
			}
			return append(log, frame...)
		})},
		// The first record's stored CRC, not its payload, is what changes.
		{"a complete record failing its CRC", edited(func(log []byte) []byte { log[len(logHeader)+4] ^= 1; return log })},
		{"another magic", edited(func(log []byte) []byte { log[1] = 'X'; return log })},
		{"a version-3 gob snapshot", v3Snapshot(t, good)},
		{"a short file that is not a log header", []byte("\x89CKX")},
	} {
		if err := os.WriteFile(path, c.log, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ex2.Run(victim.Config.Labels, nil); err == nil {
			t.Fatalf("resume from a checkpoint with %s must be refused", c.what)
		}
	}
}

// FuzzResumeCheckpoint: a checkpoint is durable state read back from
// disk, so resuming from arbitrary bytes returns an error or a clone,
// never a panic. The seeds are a budget-interrupted log, the completed
// log its resume appended to, and a torn prefix of that log.
func FuzzResumeCheckpoint(f *testing.F) {
	pre, victim := smallPair()
	newEx := func(path string, resume bool, budget int64) *Extractor {
		return &Extractor{
			Pre:            pre,
			Oracle:         sidechannel.NewOracle(victim),
			Cfg:            DefaultConfig(),
			CheckpointPath: path,
			Resume:         resume,
			ReadBudget:     budget,
		}
	}
	path := filepath.Join(f.TempDir(), "seed.ckpt")
	readSeed := func() []byte {
		seed, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		return seed
	}
	if _, _, err := newEx(path, false, 1000).Run(victim.Config.Labels, nil); !errors.Is(err, ErrInterrupted) {
		f.Fatalf("seed run: want ErrInterrupted, got %v", err)
	}
	f.Add(readSeed())
	if _, _, err := newEx(path, true, 0).Run(victim.Config.Labels, nil); err != nil {
		f.Fatal(err)
	}
	complete := readSeed()
	f.Add(complete)
	f.Add(complete[:len(complete)-5])
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		clone, st, err := newEx(path, true, 0).Run(victim.Config.Labels, nil)
		if err == nil && (clone == nil || st == nil) {
			t.Fatal("a resume without an error returned no clone")
		}
	})
}
