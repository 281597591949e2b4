package transformer

import (
	"math"
	"sort"
	"sync"
	"testing"

	"decepticon/internal/rng"
)

// TestInferenceMatchesTrainingForward pins the one forward's two callers
// to each other: logits from an inference pass — fresh per call, or one
// pass reused across every sequence length in both directions — equal
// the training forward's bit for bit, on every architecture, encoder and
// decoder, with a pruned head.
func TestInferenceMatchesTrainingForward(t *testing.T) {
	fam := Family()
	names := make([]string, 0, len(fam))
	for name := range fam {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, causal := range []bool{false, true} {
			cfg := fam[name]
			cfg.Causal = causal
			m := NewWithInit(cfg, 31, TrainedInit)
			m.PruneHeads(0, 1)
			r := rng.New(32)
			shared := m.newPass()
			lengths := make([]int, 0, 2*cfg.MaxSeq)
			for n := cfg.MaxSeq; n >= 1; n-- {
				lengths = append(lengths, n)
			}
			for n := 1; n <= cfg.MaxSeq; n++ {
				lengths = append(lengths, n)
			}
			for _, n := range lengths {
				tokens := make([]int, n)
				for i := range tokens {
					tokens[i] = r.Intn(cfg.Vocab)
				}
				acts := m.trainForward(tokens)
				want := m.headLogits(make([]float32, m.Labels), m.pool(make([]float32, m.Hidden), acts))
				for label, got := range map[string][]float32{
					"fresh pass":  m.Logits(tokens),
					"shared pass": m.infer(shared, tokens),
				} {
					for j := range want {
						if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
							t.Fatalf("%s causal=%v len=%d %s: logit %d = %v, training forward %v",
								name, causal, n, label, j, got[j], want[j])
						}
					}
				}
			}
		}
	}
}

// TestConcurrentPredictionsMatchSerial: inference writes no model state,
// so goroutines sharing one model each get the serial answer. Mixed
// sequence lengths make any shared intermediate show as a wrong answer
// or a shape panic.
func TestConcurrentPredictionsMatchSerial(t *testing.T) {
	cfg := Family()["small"]
	m := NewWithInit(cfg, 33, TrainedInit)
	r := rng.New(34)
	examples := make([]Example, 24)
	for i := range examples {
		tokens := make([]int, 1+r.Intn(cfg.MaxSeq))
		for j := range tokens {
			tokens[j] = r.Intn(cfg.Vocab)
		}
		examples[i] = Example{Tokens: tokens, Label: i % cfg.Labels}
	}
	want := m.Predictions(examples)
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each goroutine starts at its own offset so different
			// lengths are in flight at once.
			rotated := append(append([]Example(nil), examples[g:]...), examples[:g]...)
			for rep := 0; rep < 4; rep++ {
				got := m.Predictions(rotated)
				for i := range got {
					if w := want[(i+g)%len(want)]; got[i] != w {
						t.Errorf("goroutine %d: example %d predicted %d, serial %d", g, (i+g)%len(want), got[i], w)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
