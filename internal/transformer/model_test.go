package transformer

import (
	"math"
	"testing"

	"decepticon/internal/rng"
	"decepticon/internal/tensor"
)

func testConfig() Config {
	return Config{
		Name: "test", Layers: 2, Hidden: 8, Heads: 2, FFN: 16,
		Vocab: 12, MaxSeq: 6, Labels: 3,
	}
}

func TestConfigValidate(t *testing.T) {
	good := testConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := good
	bad.Hidden = 9 // not divisible by 2 heads
	if err := bad.Validate(); err == nil {
		t.Fatal("indivisible hidden must be rejected")
	}
	bad = good
	bad.Layers = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero layers must be rejected")
	}
}

func TestFamilyConfigsValid(t *testing.T) {
	fam := Family()
	if len(fam) < 5 {
		t.Fatalf("family too small: %d", len(fam))
	}
	for name, cfg := range fam {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("family config %s invalid: %v", name, err)
		}
	}
	if fam["large"].Layers <= fam["base"].Layers || fam["large"].Hidden <= fam["base"].Hidden {
		t.Fatal("large must be strictly bigger than base, as in the BERT family")
	}
}

func TestForwardShapeAndDeterminism(t *testing.T) {
	m := New(testConfig(), 1)
	tokens := []int{1, 2, 3, 4}
	l1 := m.Logits(tokens)
	l2 := m.Logits(tokens)
	if len(l1) != 3 {
		t.Fatalf("logits len %d, want 3", len(l1))
	}
	for i := range l1 {
		if l1[i] != l2[i] {
			t.Fatal("forward must be deterministic")
		}
	}
	m2 := New(testConfig(), 1)
	l3 := m2.Logits(tokens)
	for i := range l1 {
		if l1[i] != l3[i] {
			t.Fatal("same seed must give identical models")
		}
	}
	m3 := New(testConfig(), 2)
	same := true
	for i := range l1 {
		if l1[i] != m3.Logits(tokens)[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds must give different models")
	}
}

func TestProbsSumToOne(t *testing.T) {
	m := New(testConfig(), 3)
	p := m.Probs([]int{0, 5, 11})
	var sum float32
	for _, v := range p {
		sum += v
	}
	if math.Abs(float64(sum-1)) > 1e-5 {
		t.Fatalf("probs sum to %v", sum)
	}
}

// TestGradientsMatchNumeric verifies the full hand-written backward pass
// (attention, softmax, layer norm, GELU FFN, residuals, embeddings, head)
// against central finite differences.
func TestGradientsMatchNumeric(t *testing.T) {
	m := New(testConfig(), 4)
	tokens := []int{1, 7, 3, 9, 0}
	label := 2

	loss := func() float64 {
		logits := m.Logits(tokens)
		probs := tensor.SoftmaxRows(tensor.FromSlice(1, len(logits), logits)).Row(0)
		return -math.Log(float64(probs[label]))
	}

	m.ZeroGrads()
	m.LossAndBackward(tokens, label)

	const h = 1e-2
	checked := 0
	for _, p := range m.Params() {
		stride := len(p.Value.Data)/4 + 1
		for j := 0; j < len(p.Value.Data); j += stride {
			if p.Name == "tok_emb" {
				// Only rows of used tokens receive gradient; check one used row.
				j = tokens[0]*m.Hidden + j%m.Hidden
			}
			orig := p.Value.Data[j]
			p.Value.Data[j] = orig + h
			up := loss()
			p.Value.Data[j] = orig - h
			down := loss()
			p.Value.Data[j] = orig
			numeric := (up - down) / (2 * h)
			analytic := float64(p.Grad.Data[j])
			if math.Abs(numeric-analytic) > 2e-2*(1+math.Abs(numeric)) {
				t.Fatalf("%s[%d]: analytic %v vs numeric %v", p.Name, j, analytic, numeric)
			}
			checked++
			if p.Name == "tok_emb" {
				break
			}
		}
	}
	if checked < 30 {
		t.Fatalf("only %d coordinates checked", checked)
	}
}

func TestEmbeddingGradientMatchesNumeric(t *testing.T) {
	m := New(testConfig(), 5)
	tokens := []int{2, 4, 6}
	label := 1
	m.ZeroGrads()
	_, dEmb := m.LossAndBackward(tokens, label)

	// Perturb one embedding-output coordinate by perturbing the token
	// embedding (position 1, dim 3) and compare.
	const h = 1e-2
	j := tokens[1]*m.Hidden + 3
	loss := func() float64 {
		logits := m.Logits(tokens)
		probs := tensor.SoftmaxRows(tensor.FromSlice(1, len(logits), logits)).Row(0)
		return -math.Log(float64(probs[label]))
	}
	orig := m.TokEmb.V.Data[j]
	m.TokEmb.V.Data[j] = orig + h
	up := loss()
	m.TokEmb.V.Data[j] = orig - h
	down := loss()
	m.TokEmb.V.Data[j] = orig
	numeric := (up - down) / (2 * h)
	analytic := float64(dEmb.At(1, 3))
	if math.Abs(numeric-analytic) > 2e-2*(1+math.Abs(numeric)) {
		t.Fatalf("embedding grad: analytic %v vs numeric %v", analytic, numeric)
	}
}

func TestLayerNormForwardProperties(t *testing.T) {
	r := rng.New(6)
	x := tensor.Randn(4, 8, 3, r)
	g := make([]float32, 8)
	b := make([]float32, 8)
	for i := range g {
		g[i] = 1
	}
	out := tensor.New(4, 8)
	layerNormForward(out, x, g, b, &lnCache{xhat: *tensor.New(4, 8), invStd: make([]float32, 4)})
	for i := 0; i < out.Rows; i++ {
		row := out.Row(i)
		var mean float64
		for _, v := range row {
			mean += float64(v)
		}
		mean /= 8
		var variance float64
		for _, v := range row {
			variance += (float64(v) - mean) * (float64(v) - mean)
		}
		variance /= 8
		if math.Abs(mean) > 1e-5 {
			t.Fatalf("row %d mean %v", i, mean)
		}
		if math.Abs(variance-1) > 1e-3 {
			t.Fatalf("row %d variance %v", i, variance)
		}
	}
}

func TestTrainingLearnsSeparableTask(t *testing.T) {
	m := New(testConfig(), 7)
	// Task: label = 1 if token 3 appears, 2 if token 9 appears, else 0.
	r := rng.New(8)
	var examples []Example
	for i := 0; i < 120; i++ {
		tokens := make([]int, 5)
		for j := range tokens {
			tokens[j] = r.Intn(12)
			if tokens[j] == 3 || tokens[j] == 9 {
				tokens[j] = 0
			}
		}
		label := i % 3
		switch label {
		case 1:
			tokens[r.Intn(5)] = 3
		case 2:
			tokens[r.Intn(5)] = 9
		}
		examples = append(examples, Example{Tokens: tokens, Label: label})
	}
	m.Train(examples, TrainConfig{Epochs: 15, BatchSize: 8, LR: 3e-3, Seed: 1})
	if acc := m.Evaluate(examples); acc < 0.85 {
		t.Fatalf("training accuracy %v < 0.85", acc)
	}
}

func TestCloneIsIndependentAndIdentical(t *testing.T) {
	m := New(testConfig(), 9)
	c := m.Clone()
	tokens := []int{1, 2, 3}
	a, b := m.Logits(tokens), c.Logits(tokens)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("clone must produce identical outputs")
		}
	}
	c.TokEmb.V.Data[0] += 1
	if m.TokEmb.V.Data[0] == c.TokEmb.V.Data[0] {
		t.Fatal("clone must not share storage")
	}
}

func TestFineTuneFromKeepsBackboneClose(t *testing.T) {
	pre := New(testConfig(), 10)
	r := rng.New(11)
	var examples []Example
	for i := 0; i < 60; i++ {
		tokens := []int{r.Intn(12), r.Intn(12), r.Intn(12)}
		examples = append(examples, Example{Tokens: tokens, Label: i % 2})
	}
	ft := FineTuneFrom(pre, 2, examples, TrainConfig{Epochs: 3, LR: 1e-4, WeightDecay: 0.01, Seed: 2}, 99)
	gaps := WeightGaps(pre, ft)
	var maxGap float64
	for _, g := range gaps {
		if math.Abs(g) > maxGap {
			maxGap = math.Abs(g)
		}
	}
	if maxGap > 0.1 {
		t.Fatalf("fine-tuning moved a backbone weight by %v — too far", maxGap)
	}
	// An unrelated pre-trained model must be far away.
	other := New(testConfig(), 999)
	otherGaps := WeightGaps(other, ft)
	var sumFT, sumOther float64
	for _, g := range gaps {
		sumFT += math.Abs(g)
	}
	for _, g := range otherGaps {
		sumOther += math.Abs(g)
	}
	if sumOther/float64(len(otherGaps)) < 5*sumFT/float64(len(gaps)) {
		t.Fatalf("unrelated model not clearly farther: own %v vs other %v",
			sumFT/float64(len(gaps)), sumOther/float64(len(otherGaps)))
	}
}

func TestLayerMeanAbsDiffShape(t *testing.T) {
	a := New(testConfig(), 12)
	b := New(testConfig(), 13)
	diffs := LayerMeanAbsDiff(a, b)
	if len(diffs) != a.Layers+1 {
		t.Fatalf("got %d per-layer diffs, want %d", len(diffs), a.Layers+1)
	}
	self := LayerMeanAbsDiff(a, a)
	for _, d := range self {
		if d != 0 {
			t.Fatal("self diff must be zero")
		}
	}
}

func TestSignKeepRate(t *testing.T) {
	a := New(testConfig(), 14)
	if got := SignKeepRate(a, a); got != 1 {
		t.Fatalf("self sign keep rate = %v", got)
	}
	b := a.Clone()
	// Flip the sign of every weight in one tensor.
	for i := range b.Blocks[0].Wq.V.Data {
		b.Blocks[0].Wq.V.Data[i] = -b.Blocks[0].Wq.V.Data[i]
	}
	if got := SignKeepRate(a, b); got >= 1 {
		t.Fatalf("sign keep rate after flip = %v", got)
	}
}

func TestHeadPruningChangesOutput(t *testing.T) {
	m := New(testConfig(), 15)
	tokens := []int{1, 2, 3, 4}
	before := m.Logits(tokens)
	m.PruneHeads(0, 1)
	after := m.Logits(tokens)
	if m.PrunedHeadCount() != 1 {
		t.Fatalf("pruned count = %d", m.PrunedHeadCount())
	}
	same := true
	for i := range before {
		if before[i] != after[i] {
			same = false
		}
	}
	if same {
		t.Fatal("pruning a head must change the output")
	}
}

func TestHeadConfidenceRange(t *testing.T) {
	m := New(testConfig(), 16)
	probes := [][]int{{1, 2, 3, 4}, {5, 6, 7, 8}}
	conf := m.HeadConfidence(probes)
	if len(conf) != m.Layers || len(conf[0]) != m.Heads {
		t.Fatalf("confidence shape %dx%d", len(conf), len(conf[0]))
	}
	for l := range conf {
		for h, c := range conf[l] {
			// Max attention weight over a row of a 4-token softmax is in
			// [1/4, 1].
			if c < 0.25-1e-6 || c > 1+1e-6 {
				t.Fatalf("confidence[%d][%d] = %v out of range", l, h, c)
			}
		}
	}
}

func TestParamsNaming(t *testing.T) {
	m := New(testConfig(), 17)
	ps := m.Params()
	// 2 embeddings + 16 per block * 2 blocks + 2 head tensors.
	if len(ps) != 2+16*2+2 {
		t.Fatalf("param tensor count = %d", len(ps))
	}
	last := ps[len(ps)-1]
	if !last.IsHead || last.Layer != m.Layers {
		t.Fatalf("last param should be head: %+v", last)
	}
	if m.HeadParamCount() != m.Hidden*m.Labels+m.Labels {
		t.Fatalf("head param count = %d", m.HeadParamCount())
	}
}

func TestTokenValidation(t *testing.T) {
	m := New(testConfig(), 18)
	for _, bad := range [][]int{{-1}, {12}, {}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("tokens %v must panic", bad)
				}
			}()
			m.Logits(bad)
		}()
	}
}

func TestFreezeBackboneOnlyMovesHead(t *testing.T) {
	m := New(testConfig(), 19)
	before := m.Clone()
	examples := []Example{{Tokens: []int{1, 2}, Label: 0}, {Tokens: []int{3, 4}, Label: 1}}
	m.Train(examples, TrainConfig{Epochs: 2, LR: 1e-2, Seed: 3, FreezeBackbone: true})
	if gaps := WeightGaps(before, m); len(gaps) > 0 {
		for _, g := range gaps {
			if g != 0 {
				t.Fatal("backbone must not move when frozen")
			}
		}
	}
	if tensor.ApproxEqual(before.HeadW.V, m.HeadW.V, 0) {
		t.Fatal("head must move during head-only training")
	}
}
