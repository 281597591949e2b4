package core

import (
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"

	"decepticon/internal/extract"
	"decepticon/internal/obs"
	"decepticon/internal/sidechannel"
	"decepticon/internal/stats"
	"decepticon/internal/zoo"
)

var (
	prepOnce sync.Once
	testZ    *zoo.Zoo
	testAtk  *Attack
)

// getAttack prepares one shared attack instance. The zoo uses the
// small-architecture build with real training so extraction metrics are
// meaningful, at reduced population.
func getAttack(t *testing.T) (*Attack, *zoo.Zoo) {
	t.Helper()
	prepOnce.Do(func() {
		cfg := zoo.SmallBuildConfig()
		cfg.NumPretrained = 8
		cfg.NumFineTuned = 12
		testZ = zoo.MustBuild(cfg)
		atk, err := Prepare(testZ, DefaultPrepareConfig())
		if err != nil {
			panic(err)
		}
		testAtk = atk
	})
	return testAtk, testZ
}

// victimWithUniqueProfile returns a fine-tuned victim whose pre-trained
// model is not profile-ambiguous.
func victimWithUniqueProfile(z *zoo.Zoo) *zoo.FineTuned {
	for _, f := range z.FineTuned {
		if len(z.AmbiguousWith(f.Pretrained)) == 1 {
			return f
		}
	}
	return nil
}

// victimWithAmbiguousProfile returns a victim from an ambiguity cluster.
func victimWithAmbiguousProfile(z *zoo.Zoo) *zoo.FineTuned {
	for _, f := range z.FineTuned {
		if len(z.AmbiguousWith(f.Pretrained)) > 1 {
			return f
		}
	}
	return nil
}

func TestEndToEndUniqueVictim(t *testing.T) {
	atk, z := getAttack(t)
	victim := victimWithUniqueProfile(z)
	if victim == nil {
		t.Skip("no unique-profile victim in reduced zoo")
	}
	rep, err := atk.Run(victim, RunOptions{MeasureSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.CorrectIdentity {
		t.Fatalf("identified %q, true %q", rep.Identified, rep.TruePretrained)
	}
	if rep.UsedQueryProbes {
		t.Fatal("unique victim must not need query probes")
	}
	if rep.Extract == nil {
		t.Fatal("extraction did not run")
	}
	if rep.MatchRate < 0.9 {
		t.Fatalf("clone match rate %v < 0.9 (paper: 0.94)", rep.MatchRate)
	}
	if d := rep.VictimAcc - rep.CloneAcc; d > 0.1 || d < -0.1 {
		t.Fatalf("clone accuracy %v far from victim %v", rep.CloneAcc, rep.VictimAcc)
	}
}

func TestEndToEndAmbiguousVictimUsesProbes(t *testing.T) {
	atk, z := getAttack(t)
	victim := victimWithAmbiguousProfile(z)
	if victim == nil {
		t.Skip("no ambiguity cluster in reduced zoo")
	}
	rep, err := atk.Run(victim, RunOptions{MeasureSeed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The CNN may or may not land on a cluster member as top-1; when it
	// does, the probes must fire and resolve the identity.
	if rep.UsedQueryProbes {
		if rep.ProbeQueries == 0 {
			t.Fatal("probe path used but no queries counted")
		}
		if !rep.CorrectIdentity {
			t.Fatalf("probes resolved to %q, true %q", rep.Identified, rep.TruePretrained)
		}
	}
	if rep.Identified == "" {
		t.Fatal("no identification produced")
	}
}

func TestAdversarialStage(t *testing.T) {
	atk, z := getAttack(t)
	victim := victimWithUniqueProfile(z)
	if victim == nil {
		t.Skip("no unique-profile victim in reduced zoo")
	}
	rep, err := atk.Run(victim, RunOptions{MeasureSeed: 3, Adversarial: true, NumSubstitutes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.AdvSubstitutes) != 2 {
		t.Fatalf("substitutes evaluated: %d", len(rep.AdvSubstitutes))
	}
	// The clone is near-exact, so its attack should beat every distilled
	// substitute (Fig 18's shape).
	for i, s := range rep.AdvSubstitutes {
		if s > rep.AdvClone {
			t.Fatalf("substitute %d success %v exceeds clone's %v", i, s, rep.AdvClone)
		}
	}
}

func TestReportFields(t *testing.T) {
	atk, z := getAttack(t)
	rep, err := atk.Run(z.FineTuned[0], RunOptions{MeasureSeed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Victim == "" || rep.TruePretrained == "" || rep.Identified == "" {
		t.Fatalf("incomplete report: %+v", rep)
	}
	if !strings.Contains(rep.Victim, "__ft-") {
		t.Fatalf("victim name %q looks wrong", rep.Victim)
	}
	if rep.Extract != nil && rep.Clone == nil {
		t.Fatal("extraction ran but clone missing")
	}
}

// The Evaluate stage derives its five scores from one prediction vector
// per model, the last stop check's or its own Predictions pass; each must
// equal the models' own scoring methods.
func TestEvaluateScoresMatchModelMethods(t *testing.T) {
	atk, z := getAttack(t)
	dir := t.TempDir()
	checked := 0
	for _, victim := range z.FineTuned[:4] {
		// The first run scores with its last stop check's vectors; resuming
		// its completed checkpoint runs no check, so Evaluate makes its own
		// two passes.
		for _, resume := range []bool{false, true} {
			rep, err := atk.Run(victim, RunOptions{MeasureSeed: 6, CheckpointDir: dir, Resume: resume})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Clone == nil {
				continue
			}
			checked++
			vm, dev := victim.Model(), victim.Dev
			want := [5]float64{
				stats.MatchRate(vm.Predictions(dev), rep.Clone.Predictions(dev)),
				vm.Evaluate(dev), rep.Clone.Evaluate(dev),
				vm.EvaluateF1(dev), rep.Clone.EvaluateF1(dev),
			}
			got := [5]float64{rep.MatchRate, rep.VictimAcc, rep.CloneAcc, rep.VictimF1, rep.CloneF1}
			if got != want {
				t.Fatalf("%s (resume %v): match/acc/acc/F1/F1 = %v, model methods say %v",
					victim.Name, resume, got, want)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no victim produced a clone")
	}
}

func TestIdentificationAccuracyAcrossVictims(t *testing.T) {
	atk, z := getAttack(t)
	correct := 0
	for i, f := range z.FineTuned {
		rep, err := atk.Run(f, RunOptions{MeasureSeed: uint64(100 + i)})
		if err != nil {
			t.Fatal(err)
		}
		if rep.CorrectIdentity {
			correct++
		}
	}
	frac := float64(correct) / float64(len(z.FineTuned))
	if frac < 0.6 {
		t.Fatalf("end-to-end identification rate %v too low", frac)
	}
}

func TestArchConfirmedOnCorrectIdentification(t *testing.T) {
	atk, z := getAttack(t)
	victim := victimWithUniqueProfile(z)
	if victim == nil {
		t.Skip("no unique-profile victim in reduced zoo")
	}
	rep, err := atk.Run(victim, RunOptions{MeasureSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CorrectIdentity && !rep.ArchConfirmed {
		t.Fatal("bus-probe architecture check must confirm a correct identification")
	}
}

// tinyZooCfg returns the smallest population worth attacking, for tests
// that must build a zoo more than once.
func tinyZooCfg() zoo.BuildConfig {
	cfg := zoo.SmallBuildConfig()
	cfg.NumPretrained = 3
	cfg.NumFineTuned = 4
	cfg.PretrainExamples = 40
	cfg.FineTuneExamples = 40
	return cfg
}

// TestParallelPipelineMatchesSerial is the acceptance check for the
// parallel execution layer: Build + Prepare + RunAll at Workers=1 and
// Workers=2 must produce byte-identical campaigns, down to the cloned
// weights.
func TestParallelPipelineMatchesSerial(t *testing.T) {
	run := func(workers int) *Campaign {
		cfg := tinyZooCfg()
		cfg.Workers = workers
		z := zoo.MustBuild(cfg)
		atk, err := Prepare(z, PrepareConfig{
			SamplesPerModel: 2, ImgSize: 32, Epochs: 8, LR: 0.002, Seed: 7,
			Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		c, err := atk.RunAll(z.FineTuned, RunOptions{MeasureSeed: 11, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	serial := run(1)
	par := run(2)

	if serial.Victims != par.Victims ||
		serial.Identified != par.Identified ||
		serial.ProbeResolved != par.ProbeResolved ||
		serial.ArchConfirmed != par.ArchConfirmed ||
		serial.MeanMatchRate != par.MeanMatchRate ||
		serial.MeanReduction != par.MeanReduction ||
		serial.TotalBitsRead != par.TotalBitsRead {
		t.Fatalf("campaign counters diverge:\nserial: %+v\npar:    %+v", serial, par)
	}
	for i := range serial.Reports {
		a, b := *serial.Reports[i], *par.Reports[i]
		ca, cb := a.Clone, b.Clone
		a.Clone, b.Clone = nil, nil
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("report %d diverges:\nserial: %+v\npar:    %+v", i, a, b)
		}
		if (ca == nil) != (cb == nil) {
			t.Fatalf("report %d: clone presence diverges", i)
		}
		if ca == nil {
			continue
		}
		pa, pb := ca.Params(), cb.Params()
		for j := range pa {
			da, db := pa[j].Value.Data, pb[j].Value.Data
			for k := range da {
				if da[k] != db[k] {
					t.Fatalf("report %d: clone tensor %s differs at %d", i, pa[j].Name, k)
				}
			}
		}
	}
}

// TestScheduledCampaignWorkerInvariant: a campaign run with the
// information-ordered extraction scheduler must stay byte-identical for
// any worker count — the schedule is a pure function of each victim's
// pre-trained baseline and the estimator lives per victim, so no
// cross-victim state can leak through the pool.
func TestScheduledCampaignWorkerInvariant(t *testing.T) {
	atk0, z := getAttack(t)
	atk := *atk0
	cfg := extract.DefaultConfig()
	cfg.ReadRepeats = 3
	// Disable the layer-wise early stop so every victim actually walks
	// the scheduled path instead of finishing on the head alone.
	cfg.StopMatchRate = 2
	atk.ExtractCfg = cfg
	victims := z.FineTuned[:4]
	plan := &sidechannel.FaultPlan{Seed: 3, TransientRate: 0.01, StuckRate: 0.0001}
	run := func(workers int) *Campaign {
		c, err := atk.RunAll(victims, RunOptions{
			MeasureSeed:         31,
			Workers:             workers,
			ScheduledExtraction: true,
			FaultPlan:           plan,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	serial := run(1)
	par := run(3)
	scheduledRan := false
	for i := range serial.Reports {
		a, b := *serial.Reports[i], *par.Reports[i]
		if a.Extract != nil && a.Extract.VoteWidthN > 0 {
			scheduledRan = true
		}
		ca, cb := a.Clone, b.Clone
		a.Clone, b.Clone = nil, nil
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("report %d diverges across worker counts:\nserial: %+v\npar:    %+v", i, a, b)
		}
		if ca == nil || cb == nil {
			continue
		}
		pa, pb := ca.Params(), cb.Params()
		for j := range pa {
			da, db := pa[j].Value.Data, pb[j].Value.Data
			for k := range da {
				if da[k] != db[k] {
					t.Fatalf("report %d: clone tensor %s differs at %d", i, pa[j].Name, k)
				}
			}
		}
	}
	if !scheduledRan {
		t.Fatal("no report shows scheduler activity — the scheduled path never ran")
	}
}

// TestPrepareFillsZeroFieldsIndividually guards the config-defaulting
// bugfix: setting some fields must not silently replace the others with
// the full default config (the old behavior whenever SamplesPerModel
// was zero).
func TestPrepareFillsZeroFieldsIndividually(t *testing.T) {
	_, z := getAttack(t)
	// SamplesPerModel left zero: it must be defaulted while the explicit
	// ImgSize choice survives.
	atk, err := Prepare(z, PrepareConfig{ImgSize: 32, Epochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if atk.Classifier.ImgSize != 32 {
		t.Fatalf("explicit ImgSize overwritten: got %d, want 32", atk.Classifier.ImgSize)
	}
	// All-zero config still resolves to the documented defaults.
	atk2, err := Prepare(z, PrepareConfig{Epochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if atk2.Classifier.ImgSize != DefaultPrepareConfig().ImgSize {
		t.Fatalf("zero ImgSize not defaulted: got %d", atk2.Classifier.ImgSize)
	}
}

func TestPrepareRejectsBadImgSize(t *testing.T) {
	atk, err := Prepare(&zoo.Zoo{}, PrepareConfig{SamplesPerModel: 1, ImgSize: 48})
	if err == nil {
		t.Fatal("ImgSize 48 must be rejected")
	}
	if atk != nil {
		t.Fatal("rejected Prepare must not return an attack")
	}
	if !strings.Contains(err.Error(), "ImgSize") {
		t.Fatalf("error %v does not explain the ImgSize constraint", err)
	}
}

// TestPickSubstituteValidity guards the substitute-fallback bugfix: the
// chosen distillation baseline is never the victim's own pre-trained
// release and always vocabulary-compatible, for every victim and every
// substitute index; nil only when no pool member qualifies.
func TestPickSubstituteValidity(t *testing.T) {
	_, z := getAttack(t)
	for _, f := range z.FineTuned {
		for s := 0; s < 2*len(z.Pretrained); s++ {
			p := pickSubstitute(z, f, s)
			if p == nil {
				for _, q := range z.Pretrained {
					if q.Name != f.Pretrained.Name && q.Arch.Vocab == f.Pretrained.Arch.Vocab {
						t.Fatalf("victim %s s=%d: nil though %s qualifies", f.Name, s, q.Name)
					}
				}
				continue
			}
			if p.Name == f.Pretrained.Name {
				t.Fatalf("victim %s s=%d: substitute is the victim's own release", f.Name, s)
			}
			if p.Arch.Vocab != f.Pretrained.Arch.Vocab {
				t.Fatalf("victim %s s=%d: substitute vocab %d != victim vocab %d",
					f.Name, s, p.Arch.Vocab, f.Pretrained.Arch.Vocab)
			}
		}
	}
}

func TestPickSubstituteNilWhenPoolExhausted(t *testing.T) {
	_, z := getAttack(t)
	victim := z.FineTuned[0]
	// A pool holding only the victim's own release offers no valid
	// baseline.
	solo := &zoo.Zoo{Pretrained: []*zoo.Pretrained{victim.Pretrained}}
	if p := pickSubstitute(solo, victim, 0); p != nil {
		t.Fatalf("expected nil from exhausted pool, got %s", p.Name)
	}
}

// TestObsReconcilesWithCampaign is the observability acceptance check:
// one registry observing a full campaign — with majority-vote reads and
// an unreliable oracle — must agree exactly with the per-report
// extraction stats and the oracle meters, and its counters must be
// byte-identical across worker counts.
func TestObsReconcilesWithCampaign(t *testing.T) {
	run := func(workers int) (*Campaign, obs.Snapshot) {
		reg := obs.New()
		cfg := tinyZooCfg()
		cfg.Workers = workers
		cfg.Obs = reg
		z := zoo.MustBuild(cfg)
		atk, err := Prepare(z, PrepareConfig{
			SamplesPerModel: 2, ImgSize: 32, Epochs: 8, LR: 0.002, Seed: 7,
			Workers: workers, Obs: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		ec := extract.DefaultConfig()
		ec.ReadRepeats = 3
		atk.ExtractCfg = ec
		c, err := atk.RunAll(z.FineTuned, RunOptions{
			MeasureSeed: 11, Workers: workers, BitErrorRate: 0.01,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c, reg.Snapshot()
	}
	c, snap := run(1)

	var logical, physical, hammer, queries int64
	for _, rep := range c.Reports {
		queries += int64(rep.ProbeQueries)
		if rep.Extract == nil {
			continue
		}
		logical += rep.Extract.LogicalBitsRead()
		physical += rep.Extract.PhysicalBitReads
		hammer += rep.Extract.HammerRounds()
		queries += int64(rep.Extract.QueriesUsed)
	}
	if logical == 0 {
		t.Fatal("campaign extracted nothing")
	}
	if physical != 3*logical {
		t.Fatalf("ReadRepeats=3: physical reads %d, want 3×logical (%d)", physical, 3*logical)
	}
	checks := []struct {
		counter string
		want    int64
	}{
		{"sidechannel.bit_reads_physical", physical},
		{"sidechannel.hammer_rounds", hammer},
		{"extract.bits_logical", logical - snap.Counters["extract.head_bits_logical"]},
		{"core.victim_queries", queries},
		{"core.victims_attacked", int64(c.Victims)},
		{"extract.runs", int64(c.Victims - c.ExtractFailed)},
	}
	for _, ck := range checks {
		if got := snap.Counters[ck.counter]; got != ck.want {
			t.Errorf("registry %s = %d, campaign says %d", ck.counter, got, ck.want)
		}
	}
	if c.TotalBitsRead != logical || c.TotalPhysicalReads != physical || c.TotalHammerRounds() != hammer {
		t.Fatalf("campaign totals (logical %d, physical %d, hammer %d) diverge from reports (%d, %d, %d)",
			c.TotalBitsRead, c.TotalPhysicalReads, c.TotalHammerRounds(), logical, physical, hammer)
	}
	// The noisy channel must have flipped at least one read at this scale.
	if snap.Counters["sidechannel.bit_flips_injected"] == 0 {
		t.Fatal("BitErrorRate=0.01 injected no flips")
	}

	// Worker invariance: counters and gauges (order-independent sums) are
	// byte-identical; wall-time timers legitimately differ.
	_, snap2 := run(2)
	marshal := func(s obs.Snapshot) string {
		b, err := json.Marshal(struct {
			C map[string]int64
			G map[string]float64
		}{s.Counters, s.Gauges})
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if a, b := marshal(snap), marshal(snap2); a != b {
		t.Fatalf("counters diverge across worker counts:\n1 worker:  %s\n2 workers: %s", a, b)
	}
}

func TestCampaignAggregation(t *testing.T) {
	atk, z := getAttack(t)
	victims := z.FineTuned[:6]
	c, err := atk.RunAll(victims, RunOptions{MeasureSeed: 50})
	if err != nil {
		t.Fatal(err)
	}
	if c.Victims != len(victims) || len(c.Reports) != len(victims) {
		t.Fatalf("campaign covered %d victims", c.Victims)
	}
	if c.IdentificationRate() < 0.5 {
		t.Fatalf("identification rate %v", c.IdentificationRate())
	}
	if c.MeanMatchRate < 0.9 {
		t.Fatalf("mean match rate %v", c.MeanMatchRate)
	}
	if c.TotalBitsRead == 0 {
		t.Fatal("no bits read across the campaign")
	}
	if c.MeanReduction < 5 {
		t.Fatalf("mean reduction %v", c.MeanReduction)
	}
}
