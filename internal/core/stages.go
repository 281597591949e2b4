package core

import (
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"

	"decepticon/internal/adversarial"
	"decepticon/internal/extract"
	"decepticon/internal/gpusim"
	"decepticon/internal/obs"
	"decepticon/internal/pipeline"
	"decepticon/internal/queryfp"
	"decepticon/internal/rng"
	"decepticon/internal/sidechannel"
	"decepticon/internal/stats"
	"decepticon/internal/transformer"
	"decepticon/internal/zoo"
)

// attackRun is one victim's pass through the staged pipeline. It
// implements the stages from Disambiguate on over the same report; the
// measure and identify stages are the sensor composites of modality.go
// wired to it. The fields below the divider carry state across stage
// boundaries (the measured channels feed identification, the identify
// spans close in Disambiguate, the clone feeds Evaluate and Adversarial).
type attackRun struct {
	a      *Attack
	opt    RunOptions
	victim *zoo.FineTuned
	rep    *Report
	log    *slog.Logger
	tk     *obs.Track
	vq     *obs.Counter
	// prog is this victim's live-progress item (nil-safe no-op when the
	// run is un-tracked): stages annotate it, extraction credits sim
	// units into it, RunContext latches its terminal state.
	prog *obs.ItemProgress

	// countedPredict is the attacker's only black-box door to the victim:
	// extraction stop-condition probes, adversarial transfer tests, and
	// distillation records all pay into core.victim_queries through it.
	countedPredict func(tokens []int) int

	// Cross-stage state: the victim's one simulated inference — the kernel
	// trace every passive sensor taps — the channels derived from it, and
	// the sensors that survived jamming/absence and feed fused
	// identification.
	trace         *gpusim.Trace
	power         *gpusim.PowerTrace
	counters      *gpusim.CounterSet
	live          []sensorStage
	identified    string
	pre           *zoo.Pretrained
	identifySpan  *obs.Span
	identifyTrace *obs.TraceSpan
	identifyStart int64
	clone         *transformer.Model
	// scores are the victim's and the clone's dev-set predictions from
	// extraction's last stop check, nil when no check scored the clone.
	scores [2][]int
}

// Disambiguate separates profile-ambiguous candidates with query-output
// probes, cross-checks the identified architecture against the victim's
// bus-probe allocation map, and closes the identify phase.
func (r *attackRun) Disambiguate(s *pipeline.State) error {
	r.prog.SetStage("disambiguate")
	cand := r.a.Zoo.PretrainedByName(r.identified)
	ambiguous := r.a.Zoo.AmbiguousWith(cand)
	if len(ambiguous) > 1 {
		r.rep.UsedQueryProbes = true
		cands := make([]*queryfp.Candidate, len(ambiguous))
		for i, p := range ambiguous {
			cands[i] = &queryfp.Candidate{Name: p.Name, Vocab: p.Vocab}
		}
		res := queryfp.Detect(cands, func(text string) []float32 {
			r.vq.Inc()
			_, probs := r.victim.ClassifyText(text)
			return probs
		}, 4)
		r.rep.ProbeQueries = res.Queries
		if res.Best != "" {
			r.identified = res.Best
		}
	}
	r.rep.Identified = r.identified
	r.rep.CorrectIdentity = r.identified == r.victim.Pretrained.Name

	r.pre = r.a.Zoo.PretrainedByName(r.identified)

	// Cross-check the identified architecture against the victim's
	// bus-probe allocation map before paying for rowhammer.
	am := sidechannel.MapModel(r.victim.Model())
	if inferred, err := sidechannel.InferArchitecture(am.Sizes()); err == nil {
		r.rep.ArchConfirmed = inferred.Layers == r.pre.Model().Layers &&
			inferred.Hidden == r.pre.Model().Hidden &&
			inferred.FFN == r.pre.Model().FFN
	}
	r.identifyTrace.End()
	r.identifySpan.End()
	// Identification cost in simulated kernel microseconds — a pure
	// function of the victim and seed, byte-identical across machines
	// and worker counts (the old wall-clock histogram was neither).
	r.a.Obs.Histogram("core.victim_identify_sim_us").Observe(float64(s.Clock.Now() - r.identifyStart))
	r.log.Info("identified", "as", r.identified, "correct", r.rep.CorrectIdentity,
		"probes", r.rep.ProbeQueries, "arch_confirmed", r.rep.ArchConfirmed)
	return nil
}

// Gate refuses extraction when the identified release's architecture
// contradicts the victim's bus-probe layout — the rowhammer phase could
// not even address the right tensors. A clean Stop: the campaign
// continues, the report records why extraction was never attempted.
func (r *attackRun) Gate(s *pipeline.State) error {
	r.prog.SetStage("gate")
	if r.pre.ArchName == r.victim.Pretrained.ArchName {
		return nil
	}
	// Architecture mismatch: the weight extraction cannot even start.
	// Record the reason explicitly — a campaign summary must be able
	// to tell "never attempted" apart from "attempted and failed".
	r.rep.ExtractSkipped = fmt.Sprintf(
		"identified release %s has architecture %s, victim's bus-probe layout says %s: extraction never attempted",
		r.identified, r.pre.ArchName, r.victim.Pretrained.ArchName)
	r.a.Obs.Counter("core.extract_skipped").Inc()
	r.tk.Instant("extract_skipped", obs.A("identified", r.identified))
	r.log.Warn("extraction skipped", "reason", "architecture mismatch", "identified", r.identified)
	return pipeline.Stop
}

// Extract is level 2: clone the victim's weights through the rowhammer
// bit oracle, honoring the run's context down to individual reads. An
// interrupted extraction (read budget or cancellation) and a failed one
// both end the run cleanly with the cause on the report; only
// infrastructure errors (an unwritable checkpoint directory) abort.
func (r *attackRun) Extract(s *pipeline.State) error {
	r.prog.SetStage("extract")
	extractSpan := r.a.Obs.StartSpan("core.phase.extract_seconds")
	extractTrace := r.tk.Begin("extract")
	oracle := sidechannel.NewOracle(r.victim.Model())
	oracle.SetObs(r.a.Obs)
	if r.opt.BitErrorRate > 0 {
		// The noise stream derives from the victim's identity, keeping
		// RunAll byte-identical across worker counts.
		oracle.SetNoise(r.opt.BitErrorRate, rng.Seed("oracle-noise", r.victim.Name))
	}
	// The fault plan likewise derives from the victim's identity.
	oracle.SetFaultPlan(r.opt.FaultPlan.ForVictim(r.victim.Name))
	cfg := r.a.ExtractCfg
	if r.opt.ScheduledExtraction && !cfg.Schedule.Enabled {
		cfg.Schedule = extract.DefaultSchedulerConfig()
	}
	ex := &extract.Extractor{
		Pre:        r.pre.Model(),
		Oracle:     oracle,
		Cfg:        cfg,
		Victim:     r.countedPredict,
		Obs:        r.a.Obs,
		Resume:     r.opt.Resume,
		ReadBudget: r.opt.ReadBudget,
		Trace:      r.tk,
		Progress:   r.prog,
	}
	if r.opt.CheckpointDir != "" {
		if err := os.MkdirAll(r.opt.CheckpointDir, 0o755); err != nil {
			extractTrace.End()
			extractSpan.End()
			return fmt.Errorf("core: checkpoint dir: %w", err)
		}
		ex.CheckpointPath = filepath.Join(r.opt.CheckpointDir, checkpointName(r.victim.Name))
	}
	clockStart := oracle.Clock()
	clone, st, err := ex.RunContext(s.Ctx, r.victim.Task.Labels, r.victim.Dev)
	extractTrace.End()
	extractSpan.End()
	// Extraction cost in simulated channel rounds (read attempts plus
	// backoff), observed whether or not the run completed — interrupted
	// and failed extractions paid for their rounds too.
	rounds := oracle.Clock() - clockStart
	s.Clock.Advance(rounds)
	r.a.Obs.Histogram("core.victim_extract_rounds").Observe(float64(rounds))
	if errors.Is(err, extract.ErrInterrupted) {
		// The read budget ran out or the context was cancelled: the work
		// done so far is checkpointed (when CheckpointDir is set) and a
		// Resume run will finish it. Not a failure — the campaign
		// continues with the other victims.
		r.rep.ExtractInterrupted = true
		r.a.Obs.Counter("core.extract_interrupted").Inc()
		r.tk.Instant("extract_interrupted")
		r.log.Warn("extraction interrupted", "err", err)
		r.a.dumpFlight(r.opt, r.victim.Name, "extraction interrupted: "+err.Error())
		return pipeline.Stop
	}
	if err != nil {
		// A malformed address map (or channel fault) loses this victim's
		// clone but not the campaign: record the failure and return the
		// level-1 results.
		r.rep.ExtractError = err.Error()
		r.a.Obs.Counter("core.extract_failures").Inc()
		r.tk.Instant("extract_failed")
		r.log.Error("extraction failed", "err", err)
		r.a.dumpFlight(r.opt, r.victim.Name, "extraction failed: "+err.Error())
		return pipeline.Stop
	}
	r.rep.Extract = st
	r.rep.Clone = clone
	r.clone = clone
	r.scores[0], r.scores[1] = ex.Scores()
	if st.TensorsDegraded > 0 {
		// Fault-budget exhaustion: the run completed, but some tensors
		// fell back to the baseline — leave the black-box record of how.
		r.a.dumpFlight(r.opt, r.victim.Name,
			fmt.Sprintf("extraction degraded %d tensors", st.TensorsDegraded))
	}
	return nil
}

// Evaluate scores the clone against the victim on the held-out dev set.
func (r *attackRun) Evaluate(s *pipeline.State) error {
	r.prog.SetStage("evaluate")
	evalSpan := r.a.Obs.StartSpan("core.phase.evaluate_seconds")
	evalTrace := r.tk.Begin("evaluate")
	// Every score derives from one prediction vector per model. Extraction
	// stops on the dev set, so its last stop check usually holds both;
	// otherwise each model makes one pass.
	vm, dev := r.victim.Model(), r.victim.Dev
	vp, cp, truth := r.scores[0], r.scores[1], transformer.Labels(dev)
	if cp == nil {
		vp, cp = vm.Predictions(dev), r.clone.Predictions(dev)
	}
	r.rep.MatchRate = stats.MatchRate(vp, cp)
	r.rep.VictimAcc = stats.Accuracy(vp, truth)
	r.rep.CloneAcc = stats.Accuracy(cp, truth)
	r.rep.VictimF1 = stats.MacroF1(vp, truth, vm.Labels)
	r.rep.CloneF1 = stats.MacroF1(cp, truth, r.clone.Labels)
	// The two vectors are a deterministic work unit for the lane clock,
	// wherever they were computed.
	d := int64(2 * len(dev))
	r.tk.Advance(d)
	s.Clock.Advance(d)
	evalTrace.End()
	evalSpan.End()
	r.log.Info("evaluated", "match_rate", r.rep.MatchRate, "clone_acc", r.rep.CloneAcc)
	return nil
}

// Adversarial is the optional Fig 18 stage: attack the victim through
// the clone and through distillation substitutes.
func (r *attackRun) Adversarial(s *pipeline.State) error {
	r.prog.SetStage("adversarial")
	advSpan := r.a.Obs.StartSpan("core.phase.adversarial_seconds")
	advTrace := r.tk.Begin("adversarial", obs.A("substitutes", r.opt.NumSubstitutes))
	flips := r.opt.FlipsPerInput
	if flips <= 0 {
		flips = 2
	}
	r.rep.AdvClone = adversarial.Evaluate(r.clone, r.countedPredict, r.victim.Dev, flips, r.a.Obs).SuccessRate()
	inputs := adversarial.RecordInputs(r.victim.Model().Vocab, r.victim.Task.SeqLen,
		4*len(r.victim.Train), rng.Seed("adv-records", r.victim.Name))
	for sub := 0; sub < r.opt.NumSubstitutes; sub++ {
		pre := pickSubstitute(r.a.Zoo, r.victim, sub)
		if pre == nil {
			r.rep.AdvSkipped = append(r.rep.AdvSkipped, fmt.Sprintf(
				"substitute %d: no pre-trained candidate with vocab size %d other than the victim's own release %s",
				sub, r.victim.Model().Vocab, r.victim.Pretrained.Name))
			continue
		}
		subModel := adversarial.BuildSubstitute(pre.Model(), r.countedPredict, inputs,
			r.victim.Task.Labels, rng.Seed("substitute", r.victim.Name, fmt.Sprint(sub)), r.a.Obs)
		r.rep.AdvSubstitutes = append(r.rep.AdvSubstitutes,
			adversarial.Evaluate(subModel, r.countedPredict, r.victim.Dev, flips, r.a.Obs).SuccessRate())
	}
	// One attack evaluation per substitute plus the clone itself.
	d := int64((1 + r.opt.NumSubstitutes) * len(r.victim.Dev))
	r.tk.Advance(d)
	s.Clock.Advance(d)
	advTrace.End()
	advSpan.End()
	return nil
}
