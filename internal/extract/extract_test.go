package extract

import (
	"math"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"decepticon/internal/ieee754"
	"decepticon/internal/sidechannel"
	"decepticon/internal/stats"
	"decepticon/internal/transformer"
	"decepticon/internal/zoo"
)

// readerFor adapts a victim weight value to Algorithm 1's bit reader.
func readerFor(victim float32) func(bit int) int {
	return func(bit int) int { return ieee754.Bit(victim, bit) }
}

func TestExtractWeightSkipsTinyWeights(t *testing.T) {
	cfg := DefaultConfig()
	clone, checked := cfg.ExtractWeight(0.0004, readerFor(0.0009))
	if len(checked) != 0 {
		t.Fatalf("tiny weight must not be read, checked %v", checked)
	}
	if clone != 0.0004 {
		t.Fatalf("tiny weight must copy the baseline, got %v", clone)
	}
}

func TestExtractWeightPaperExample(t *testing.T) {
	// Fig 13: pre-trained 0.018, fine-tuned 0.01908, expected gap ~0.002.
	cfg := DefaultConfig()
	base := float32(0.018)
	victim := float32(0.01908)
	clone, checked := cfg.ExtractWeight(base, readerFor(victim))
	if len(checked) != 2 {
		t.Fatalf("want 2 checked bits, got %v", checked)
	}
	// The two checked bits must be worth no more than the estimated gap
	// and at least ~a quarter of it (they "together cover" it).
	dist := cfg.gap(base)
	for _, k := range checked {
		v := ieee754.FractionBitValue(base, k)
		if v > dist {
			t.Fatalf("checked bit %d worth %v exceeds gap %v", k, v, dist)
		}
	}
	// The clone must land much closer to the victim than the baseline was.
	if math.Abs(float64(clone-victim)) >= math.Abs(float64(base-victim))/2 {
		t.Fatalf("clone %v no closer to victim %v than base %v", clone, victim, base)
	}
}

func TestExtractWeightTwoBitBudget(t *testing.T) {
	cfg := DefaultConfig()
	reads := 0
	cfg.ExtractWeight(0.25, func(bit int) int { reads++; return 0 })
	if reads > cfg.MaxBitsPerWeight {
		t.Fatalf("read %d bits, budget %d", reads, cfg.MaxBitsPerWeight)
	}
}

func TestExtractWeightPreservesSignAndExponent(t *testing.T) {
	cfg := DefaultConfig()
	f := func(u uint32) bool {
		base := math.Float32frombits(u)
		if base != base || math.IsInf(float64(base), 0) { // NaN/Inf
			return true
		}
		if math.Abs(float64(base)) > 100 {
			return true
		}
		clone, _ := cfg.ExtractWeight(base, readerFor(base*1.001))
		return ieee754.Sign(clone) == ieee754.Sign(base) &&
			ieee754.Exponent(clone) == ieee754.Exponent(base)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestExtractWeightIdenticalVictim(t *testing.T) {
	// If fine-tuning did not change the weight, the clone is exact.
	cfg := DefaultConfig()
	f := func(u uint32) bool {
		base := math.Float32frombits(u)
		if base != base || math.IsInf(float64(base), 0) {
			return true
		}
		clone, _ := cfg.ExtractWeight(base, readerFor(base))
		return clone == base
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// ---- end-to-end extraction over a real (pre, fine) pair ----

var (
	zooOnce sync.Once
	testZ   *zoo.Zoo
)

func getZoo(t *testing.T) *zoo.Zoo {
	t.Helper()
	zooOnce.Do(func() {
		cfg := zoo.SmallBuildConfig()
		cfg.NumPretrained = 4
		cfg.NumFineTuned = 4
		testZ = zoo.MustBuild(cfg)
	})
	return testZ
}

func runExtraction(t *testing.T, withStop bool) (*zoo.FineTuned, *transformer.Model, *Stats) {
	t.Helper()
	z := getZoo(t)
	victim := z.FineTuned[0]
	ex := &Extractor{
		Pre:    victim.Pretrained.Model(),
		Oracle: sidechannel.NewOracle(victim.Model()),
		Cfg:    DefaultConfig(),
	}
	if withStop {
		ex.Victim = victim.Model().Predict
	}
	clone, st, err := ex.Run(victim.Task.Labels, victim.Dev)
	if err != nil {
		t.Fatal(err)
	}
	return victim, clone, st
}

func TestEndToEndCloneMatchesVictim(t *testing.T) {
	victim, clone, st := runExtraction(t, false)
	vp := victim.Model().Predictions(victim.Dev)
	cp := clone.Predictions(victim.Dev)
	match := stats.MatchRate(vp, cp)
	if match < 0.9 {
		t.Fatalf("clone matches victim on %v of dev, want >= 0.9 (paper: 94%%)", match)
	}
	vAcc := victim.Model().Evaluate(victim.Dev)
	cAcc := clone.Evaluate(victim.Dev)
	if math.Abs(vAcc-cAcc) > 0.1 {
		t.Fatalf("clone accuracy %v far from victim %v", cAcc, vAcc)
	}
	if st.SignFlips > st.WeightsTotal/50 {
		t.Fatalf("too many sign flips: %d of %d", st.SignFlips, st.WeightsTotal)
	}
}

func TestSelectiveExtractionEfficiency(t *testing.T) {
	_, _, st := runExtraction(t, false)
	if st.WeightsTotal == 0 || st.HeadWeights == 0 {
		t.Fatal("empty accounting")
	}
	// Fig 16's headline shape: the overwhelming majority of weights and
	// bits never need the rowhammer channel.
	if got := st.WeightsCorrectlyPruned(); got < 0.8 {
		t.Fatalf("weights correctly pruned %v, want >= 0.8 (paper: ~0.9)", got)
	}
	if got := st.BitsCorrectlyExcluded(); got < 0.8 {
		t.Fatalf("bits correctly excluded %v, want >= 0.8 (paper: ~0.85)", got)
	}
	if got := st.ReductionFactor(); got < 5 {
		t.Fatalf("reduction factor %v, want >= 5 over full extraction", got)
	}
	// At most MaxBits per weight were read.
	if st.BitsChecked > int64(st.WeightsTotal*DefaultConfig().MaxBitsPerWeight) {
		t.Fatalf("read %d bits for %d weights", st.BitsChecked, st.WeightsTotal)
	}
	// Without majority voting the logical and physical views coincide.
	if st.PhysicalBitReads != st.LogicalBitsRead() {
		t.Fatalf("single reads: physical %d != logical %d", st.PhysicalBitReads, st.LogicalBitsRead())
	}
}

func TestEarlyStopReducesWork(t *testing.T) {
	_, _, full := runExtraction(t, false)
	_, cloneStop, stopped := runExtraction(t, true)
	if stopped.LayersExtracted > full.LayersExtracted {
		t.Fatal("stop condition increased work")
	}
	if stopped.QueriesUsed == 0 {
		t.Fatal("stop condition must query the victim")
	}
	// Even when stopping early the clone still matches well.
	victim := getZoo(t).FineTuned[0]
	match := stats.MatchRate(victim.Model().Predictions(victim.Dev), cloneStop.Predictions(victim.Dev))
	if match < 0.9 {
		t.Fatalf("early-stopped clone match %v < 0.9", match)
	}
}

func TestHeadFractionTiny(t *testing.T) {
	// Fig 16 right: the task head is a negligible fraction of the weights,
	// so full-reading it is cheap.
	victim, _, st := runExtraction(t, false)
	frac := float64(st.HeadWeights) / float64(victim.Model().ParamCount())
	if frac > 0.05 {
		t.Fatalf("head fraction %v too large for the argument to hold", frac)
	}
}

func TestStatsZeroSafe(t *testing.T) {
	var st Stats
	if st.SkipRate() != 0 || st.WeightsCorrectlyPruned() != 0 ||
		st.BitsCorrectlyExcluded() != 0 || st.BitsReadFraction() != 0 ||
		st.ReductionFactor() != 0 {
		t.Fatal("zero stats must not divide by zero")
	}
}

func TestMajorityVoteDefeatsNoisyReads(t *testing.T) {
	// A reader that lies deterministically every third call: single reads
	// are corrupted, 3-way majority voting recovers the truth.
	cfg := DefaultConfig()
	victim := float32(0.01908)
	calls := 0
	noisy := func(bit int) int {
		calls++
		b := ieee754.Bit(victim, bit)
		if calls%3 == 0 {
			return b ^ 1
		}
		return b
	}
	cfg.ReadRepeats = 3
	clone, checked := cfg.ExtractWeight(0.018, noisy)
	if len(checked) == 0 {
		t.Fatal("nothing checked")
	}
	// With voting, the clone must equal the noise-free extraction.
	cleanCfg := DefaultConfig()
	want, _ := cleanCfg.ExtractWeight(0.018, readerFor(victim))
	if clone != want {
		t.Fatalf("voted clone %v, want %v", clone, want)
	}
	if calls != 3*len(checked) {
		t.Fatalf("voting made %d reads for %d bits", calls, len(checked))
	}
}

func TestReadRepeatsEvenRoundsUp(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ReadRepeats = 2
	reads := 0
	cfg.ExtractWeight(0.018, func(bit int) int { reads++; return 0 })
	if reads%3 != 0 {
		t.Fatalf("even repeats should round up to 3, got %d reads", reads)
	}
}

func TestLayerOrderAblation(t *testing.T) {
	// Last-first (the paper's schedule) must stop at least as early as
	// first-first, measured in bits read, because the head+late layers
	// carry the task (Table 1).
	z := getZoo(t)
	victim := z.FineTuned[0]
	run := func(firstFirst bool) *Stats {
		cfg := DefaultConfig()
		cfg.FirstLayersFirst = firstFirst
		ex := &Extractor{
			Pre:    victim.Pretrained.Model(),
			Oracle: sidechannel.NewOracle(victim.Model()),
			Cfg:    cfg,
			Victim: victim.Model().Predict,
		}
		_, st, err := ex.Run(victim.Task.Labels, victim.Dev)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	lastFirst := run(false)
	firstFirst := run(true)
	if lastFirst.BitsChecked > firstFirst.BitsChecked {
		t.Fatalf("last-first read %d bits, first-first %d — schedule advantage lost",
			lastFirst.BitsChecked, firstFirst.BitsChecked)
	}
	// At this scale the head + pre-trained backbone already matches the
	// victim, so the pre-loop stop check should spare every backbone bit.
	if lastFirst.LayersExtracted != 0 || lastFirst.BitsChecked != 0 {
		t.Logf("note: stop fired after %d layers (%d bits)", lastFirst.LayersExtracted, lastFirst.BitsChecked)
	}
}

// TestMajorityVoteMetering pins the logical/physical split end to end:
// with ReadRepeats = r the physical (metered) reads grow exactly ×r while
// the logical counts — and the clone itself on a clean channel — stay
// byte-identical, so every ReductionFactor/BitsReadFraction number is
// invariant under the repeat policy while HammerRounds scales with it.
func TestMajorityVoteMetering(t *testing.T) {
	z := getZoo(t)
	victim := z.FineTuned[0]
	run := func(repeats int, noise float64) (*transformer.Model, *Stats, *sidechannel.Oracle) {
		cfg := DefaultConfig()
		cfg.ReadRepeats = repeats
		oracle := sidechannel.NewOracle(victim.Model())
		if noise > 0 {
			oracle.SetNoise(noise, 0xfeed)
		}
		ex := &Extractor{Pre: victim.Pretrained.Model(), Oracle: oracle, Cfg: cfg}
		clone, st, err := ex.Run(victim.Task.Labels, victim.Dev)
		if err != nil {
			t.Fatal(err)
		}
		return clone, st, oracle
	}

	cleanSingle, base, _ := run(0, 0)
	cloneVoted, voted, oracle := run(3, 0)

	if voted.BitsChecked != base.BitsChecked || voted.HeadBitsRead != base.HeadBitsRead {
		t.Fatalf("logical counts changed under voting: %d/%d vs %d/%d",
			voted.BitsChecked, voted.HeadBitsRead, base.BitsChecked, base.HeadBitsRead)
	}
	if voted.PhysicalBitReads != 3*voted.LogicalBitsRead() {
		t.Fatalf("physical reads %d, want 3× logical %d", voted.PhysicalBitReads, voted.LogicalBitsRead())
	}
	if voted.HammerRounds() != oracle.HammerRounds() {
		t.Fatalf("stats hammer rounds %d != oracle meter %d", voted.HammerRounds(), oracle.HammerRounds())
	}
	if voted.ReductionFactor() != base.ReductionFactor() {
		t.Fatalf("reduction factor moved under voting: %v vs %v", voted.ReductionFactor(), base.ReductionFactor())
	}
	// On a clean channel voting must not change a single clone bit.
	wantP, gotP := cleanSingle.Params(), cloneVoted.Params()
	for i := range wantP {
		for j := range wantP[i].Value.Data {
			if wantP[i].Value.Data[j] != gotP[i].Value.Data[j] {
				t.Fatalf("clone weight %s[%d] changed under voting", wantP[i].Name, j)
			}
		}
	}

	// With a noisy channel the cost relation is unchanged: repeats are
	// metered whether or not a given read happened to flip.
	_, noisy, noisyOracle := run(3, 0.05)
	if noisy.PhysicalBitReads != 3*noisy.LogicalBitsRead() {
		t.Fatalf("noisy physical reads %d, want 3× logical %d", noisy.PhysicalBitReads, noisy.LogicalBitsRead())
	}
	if noisy.HammerRounds() != noisyOracle.HammerRounds() {
		t.Fatalf("noisy stats hammer rounds %d != oracle meter %d", noisy.HammerRounds(), noisyOracle.HammerRounds())
	}
}

// TestRunRejectsMismatchedAddressMap: an oracle over a different
// architecture is a malformed address map — Run must return an error
// before paying any rowhammer cost, not panic mid-campaign.
func TestRunRejectsMismatchedAddressMap(t *testing.T) {
	pre := transformer.New(transformer.Config{
		Name: "pre", Layers: 2, Hidden: 8, Heads: 2, FFN: 16,
		Vocab: 12, MaxSeq: 6, Labels: 3,
	}, 1)
	other := transformer.New(transformer.Config{
		Name: "other", Layers: 2, Hidden: 12, Heads: 2, FFN: 24,
		Vocab: 12, MaxSeq: 6, Labels: 3,
	}, 2)
	oracle := sidechannel.NewOracle(other)
	ex := &Extractor{Pre: pre, Oracle: oracle, Cfg: DefaultConfig()}
	clone, st, err := ex.Run(3, nil)
	if err == nil {
		t.Fatal("mismatched address map must be rejected")
	}
	if clone != nil || st != nil {
		t.Fatal("failed run must not hand back partial results")
	}
	if oracle.BitReads != 0 {
		t.Fatalf("rejection must precede metered reads, but %d were charged", oracle.BitReads)
	}
}

// TestScoresAreTheLastStopCheck: a run whose last stop check scored the
// returned clone hands out that check's two prediction vectors, equal to
// the models' own Predictions, whether the check stopped the schedule or
// the schedule ran out. Every run no check scored hands out none, and a
// reused Extractor never keeps an earlier run's vectors.
func TestScoresAreTheLastStopCheck(t *testing.T) {
	pre, victim := smallPair()
	dev := make([]transformer.Example, 24)
	for i := range dev {
		tokens := make([]int, 1+i%victim.MaxSeq)
		for j := range tokens {
			tokens[j] = (7*i + 3*j) % victim.Vocab
		}
		dev[i] = transformer.Example{Tokens: tokens, Label: i % victim.Labels}
	}
	newEx := func(stopRate float64, path string) *Extractor {
		cfg := DefaultConfig()
		cfg.StopMatchRate = stopRate
		return &Extractor{Pre: pre, Oracle: sidechannel.NewOracle(victim), Cfg: cfg,
			Victim: victim.Predict, CheckpointPath: path}
	}
	run := func(ex *Extractor, validation []transformer.Example) (*transformer.Model, *Stats) {
		t.Helper()
		clone, st, err := ex.Run(victim.Labels, validation)
		if err != nil {
			t.Fatal(err)
		}
		return clone, st
	}

	for _, c := range []struct {
		name     string
		stopRate float64
		layers   int // encoder layers extracted
	}{
		{"stopped after the head", 0, 0},
		{"schedule exhausted", 1.01, victim.Layers},
	} {
		ex := newEx(c.stopRate, "")
		clone, st := run(ex, dev)
		if st.LayersExtracted != c.layers {
			t.Fatalf("%s: %d layers extracted, want %d", c.name, st.LayersExtracted, c.layers)
		}
		vp, cp := ex.Scores()
		if !reflect.DeepEqual(vp, victim.Predictions(dev)) || !reflect.DeepEqual(cp, clone.Predictions(dev)) {
			t.Fatalf("%s: scores %v / %v, the models predict %v / %v",
				c.name, vp, cp, victim.Predictions(dev), clone.Predictions(dev))
		}
	}

	noScores := func(what string, ex *Extractor, validation []transformer.Example) {
		t.Helper()
		run(ex, validation)
		if vp, cp := ex.Scores(); vp != nil || cp != nil {
			t.Fatalf("%s: scores %v / %v, want none", what, vp, cp)
		}
	}
	// Resuming the completed checkpoint a scored run left behind scores
	// nothing, on the same Extractor.
	path := filepath.Join(t.TempDir(), "scores.ckpt")
	ex := newEx(1.01, path)
	run(ex, dev)
	ex.Resume = true
	noScores("resumed completed checkpoint", ex, dev)
	ck, err := readCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := victim.Layers + 2; ck.LayersDone != want { // head, layers, embeddings
		t.Fatalf("completed checkpoint has %d entries done, want %d", ck.LayersDone, want)
	}
	ck.Complete = false
	writeCheckpoint(t, path, ck)
	noScores("resumed checkpoint with every entry done", ex, dev)
	ex = newEx(0, "")
	ex.Victim = nil
	noScores("no victim oracle", ex, dev)
	noScores("empty validation set", newEx(0, ""), nil)
}
