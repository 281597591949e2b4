package fingerprint

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestParseModalities(t *testing.T) {
	got, err := ParseModalities(" trace, power ,counters ")
	if err != nil {
		t.Fatal(err)
	}
	want := []Modality{ModalityTrace, ModalityPower, ModalityCounters}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	if got, err := ParseModalities(""); err != nil || got != nil {
		t.Fatalf("empty spec: got %v, %v; want nil, nil", got, err)
	}
	if _, err := ParseModalities("trace,laser"); err == nil {
		t.Fatal("unknown modality must error")
	}
	if _, err := ParseModalities("power,power"); err == nil {
		t.Fatal("duplicate modality must error")
	}
}

// FuzzParseModalities: the parser feeds every run's sensor list, so on
// arbitrary input it must never panic, and whatever it accepts must
// round-trip through its comma-joined form unchanged.
func FuzzParseModalities(f *testing.F) {
	for _, s := range []string{" trace, power ,counters ", "", "trace,laser", "power,power", "trace", "counters,trace", ",", " , "} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		ms, err := ParseModalities(s)
		if err != nil {
			return
		}
		names := make([]string, len(ms))
		for i, m := range ms {
			names[i] = string(m)
		}
		again, err := ParseModalities(strings.Join(names, ","))
		if err != nil {
			t.Fatalf("%q parsed to %v, whose joined form fails: %v", s, ms, err)
		}
		if !reflect.DeepEqual(again, ms) {
			t.Fatalf("%q parsed to %v, joined form re-parses to %v", s, ms, again)
		}
	})
}

func TestVectorizeDatasetWorkerCountInvariance(t *testing.T) {
	z := getZoo(t)
	d := BuildDataset(z, 3, 1, 0)
	for _, m := range []Modality{ModalityPower, ModalityCounters} {
		serial := VectorizeDataset(d, m, 7, 1)
		par := VectorizeDataset(d, m, 7, 4)
		if !reflect.DeepEqual(serial, par) {
			t.Fatalf("%s: vectorized dataset differs across worker counts", m)
		}
		if serial.Dim == 0 || len(serial.Samples) != len(d.Samples) {
			t.Fatalf("%s: dim %d, %d samples of %d", m, serial.Dim, len(serial.Samples), len(d.Samples))
		}
		wantDim := CounterFeatureDim
		if m == ModalityPower {
			wantDim = PowerFeatureDim
		}
		if serial.Dim != wantDim {
			t.Fatalf("%s: dim %d, want %d", m, serial.Dim, wantDim)
		}
	}
}

// The dense classifiers must genuinely learn the derived channels: train
// accuracy on a clean vectorized dataset should be far above chance.
func TestVectorClassifierLearns(t *testing.T) {
	z := getZoo(t)
	d := BuildDataset(z, 4, 1, 0)
	for _, m := range []Modality{ModalityPower, ModalityCounters} {
		vd := VectorizeDataset(d, m, 11, 0)
		c := NewVectorClassifier(m, vd.Dim, vd.Classes, 13)
		c.Train(vd, TrainConfig{Epochs: 50, LR: 0.002, Seed: 3})
		acc := c.Accuracy(vd)
		chance := 1 / float64(len(vd.Classes))
		if acc < 3*chance {
			t.Fatalf("%s: accuracy %.3f barely above chance %.3f", m, acc, chance)
		}
		post := c.Posterior(vd.Samples[0].Features)
		var sum float64
		for _, p := range post {
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("%s: posterior sums to %v", m, sum)
		}
	}
}

func TestFusePosteriors(t *testing.T) {
	a := []float64{0.7, 0.2, 0.1}
	b := []float64{0.1, 0.8, 0.1}
	// Equal weights: log pooling of a and b.
	fused := FusePosteriors([][]float64{a, b}, nil)
	var sum float64
	for _, p := range fused {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("fused posterior sums to %v", sum)
	}
	// Weighting one expert heavily must pull the argmax its way.
	if ArgMax(FusePosteriors([][]float64{a, b}, []float64{1, 0.01})) != 0 {
		t.Fatal("dominant weight on expert a must select a's argmax")
	}
	if ArgMax(FusePosteriors([][]float64{a, b}, []float64{0.01, 1})) != 1 {
		t.Fatal("dominant weight on expert b must select b's argmax")
	}
	// nil entries (jammed sensors) degrade to the survivors.
	if got := FusePosteriors([][]float64{nil, b}, []float64{1, 1}); !reflect.DeepEqual(got, FusePosteriors([][]float64{b}, nil)) {
		t.Fatal("jammed sensor must be skipped, not zeroed")
	}
	// Non-positive weight mutes a modality the same way.
	if got := FusePosteriors([][]float64{a, b}, []float64{0, 1}); ArgMax(got) != 1 {
		t.Fatal("zero weight must mute the modality")
	}
	// Everything jammed: nil, the caller's degradation signal.
	if FusePosteriors([][]float64{nil, nil}, nil) != nil {
		t.Fatal("all-jammed fusion must return nil")
	}
}

func TestFusionWeights(t *testing.T) {
	w := FusionWeights([]float64{0.9, 0.5, 0.02})
	if w[0] != 1 {
		t.Fatalf("best modality's weight is %v, want 1 (max-normalized)", w[0])
	}
	if !(w[1] < w[0] && w[2] < w[1]) {
		t.Fatalf("weights %v not ordered by accuracy", w)
	}
	if w[2] <= 0 {
		t.Fatalf("floor must keep a weak sensor's weight positive, got %v", w[2])
	}
	// Sharpening: the accuracy ratio amplifies.
	if w[1] > 0.5 {
		t.Fatalf("0.5-vs-0.9 accuracy should sharpen well below 0.5, got %v", w[1])
	}
}

func TestArgMaxTieBreak(t *testing.T) {
	if got := ArgMax([]float64{0.2, 0.4, 0.4}); got != 1 {
		t.Fatalf("ties must break to the lowest index, got %d", got)
	}
}
