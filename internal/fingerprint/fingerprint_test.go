package fingerprint

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"decepticon/internal/gpusim"
	"decepticon/internal/zoo"
)

var (
	zooOnce sync.Once
	testZ   *zoo.Zoo
	clfOnce sync.Once
	testClf *Classifier
	trainD  *Dataset
	testD   *Dataset
)

func getZoo(t *testing.T) *zoo.Zoo {
	t.Helper()
	zooOnce.Do(func() { testZ = zoo.MustBuild(zoo.TraceOnlyBuildConfig()) })
	return testZ
}

func getTrained(t *testing.T) (*Classifier, *Dataset, *Dataset) {
	t.Helper()
	z := getZoo(t)
	clfOnce.Do(func() {
		d := BuildDataset(z, 5, 1, 2)
		trainD, testD = d.Split(0.8, 2)
		testClf = NewClassifier(64, d.Classes, 3)
		testClf.Train(trainD, TrainConfig{Epochs: 60, LR: 0.002, Seed: 4})
	})
	return testClf, trainD, testD
}

func TestBuildDataset(t *testing.T) {
	z := getZoo(t)
	d := BuildDataset(z, 3, 1, 0)
	wantSamples := 3 * (len(z.Pretrained) + len(z.FineTuned))
	if len(d.Samples) != wantSamples {
		t.Fatalf("dataset has %d samples, want %d", len(d.Samples), wantSamples)
	}
	if len(d.Classes) != len(z.Pretrained) {
		t.Fatalf("classes %d, want %d", len(d.Classes), len(z.Pretrained))
	}
	// Fine-tuned samples are labeled with their pre-trained model.
	for _, s := range d.Samples {
		if strings.Contains(s.FromModel, "__ft-") {
			f := z.FineTunedByName(s.FromModel)
			if d.Classes[s.Label] != f.Pretrained.Name {
				t.Fatalf("sample from %s labeled %s", s.FromModel, d.Classes[s.Label])
			}
		}
	}
	// Repeated measurements of one model differ (jitter) but only slightly.
	a, b := d.Samples[0].Trace, d.Samples[1].Trace
	if a.Duration() == b.Duration() {
		t.Fatal("jittered measurements should differ")
	}
}

func TestSplitDisjointAndComplete(t *testing.T) {
	z := getZoo(t)
	d := BuildDataset(z, 2, 1, 0)
	train, test := d.Split(0.8, 7)
	if len(train.Samples)+len(test.Samples) != len(d.Samples) {
		t.Fatal("split lost samples")
	}
	if len(test.Samples) == 0 {
		t.Fatal("empty test split")
	}
}

func TestSplitTinyDatasetEdges(t *testing.T) {
	z := getZoo(t)
	d := BuildDataset(z, 1, 1, 0)
	// trainFrac 1.0: everything trains, the test split is empty but
	// well-formed (usable with Accuracy etc. without panicking).
	train, test := d.Split(1.0, 3)
	if len(train.Samples) != len(d.Samples) {
		t.Fatalf("trainFrac=1.0 kept %d of %d samples", len(train.Samples), len(d.Samples))
	}
	if len(test.Samples) != 0 {
		t.Fatalf("trainFrac=1.0 test split has %d samples, want 0", len(test.Samples))
	}
	if len(test.Classes) != len(d.Classes) {
		t.Fatal("empty split must keep the class list")
	}
	// trainFrac 0: mirror image.
	train0, test0 := d.Split(0, 3)
	if len(train0.Samples) != 0 || len(test0.Samples) != len(d.Samples) {
		t.Fatalf("trainFrac=0 split %d/%d, want 0/%d",
			len(train0.Samples), len(test0.Samples), len(d.Samples))
	}
}

// TestDatasetWorkerCountInvariance pins the parallel measurement and
// augmentation paths to their serial results.
func TestDatasetWorkerCountInvariance(t *testing.T) {
	z := getZoo(t)
	serial := BuildDataset(z, 2, 5, 1)
	par := BuildDataset(z, 2, 5, 3)
	if !reflect.DeepEqual(serial.Classes, par.Classes) {
		t.Fatal("class lists diverge across worker counts")
	}
	if !reflect.DeepEqual(serial.Samples, par.Samples) {
		t.Fatal("measured samples diverge across worker counts")
	}
	serial.AugmentNoise(2, 4, 2, 9, 1)
	par.AugmentNoise(2, 4, 2, 9, 3)
	if !reflect.DeepEqual(serial.Samples, par.Samples) {
		t.Fatal("augmented samples diverge across worker counts")
	}
}

// TestAccuracyWorkerCountInvariance pins the parallel evaluation paths
// (Accuracy, NoiseAccuracy) to their serial results; Workers is a pure
// throughput knob.
func TestAccuracyWorkerCountInvariance(t *testing.T) {
	clf, _, test := getTrained(t)
	orig := clf.Workers
	defer func() { clf.Workers = orig }()

	clf.Workers = 1
	acc1 := clf.Accuracy(test)
	noise1 := clf.NoiseAccuracy(test, 4, 2, 1)
	clf.Workers = 3
	if acc3 := clf.Accuracy(test); acc3 != acc1 {
		t.Fatalf("Accuracy %v at 3 workers vs %v serial", acc3, acc1)
	}
	if noise3 := clf.NoiseAccuracy(test, 4, 2, 1); noise3 != noise1 {
		t.Fatalf("NoiseAccuracy %v at 3 workers vs %v serial", noise3, noise1)
	}
}

func TestClassifierLearnsFingerprints(t *testing.T) {
	clf, train, test := getTrained(t)
	trainAcc := clf.Accuracy(train)
	testAcc := clf.Accuracy(test)
	if trainAcc < 0.8 {
		t.Fatalf("train accuracy %v < 0.8", trainAcc)
	}
	// The paper reports 90.78%; at this reduced scale, anything clearly
	// above the ~8%% random baseline and the ambiguity ceiling qualifies.
	if testAcc < 0.7 {
		t.Fatalf("test accuracy %v < 0.7", testAcc)
	}
}

func TestErrorsConcentrateInAmbiguityClusters(t *testing.T) {
	clf, _, test := getTrained(t)
	z := getZoo(t)
	pairs := clf.ConfusionPairs(test)
	ambiguous := 0
	for _, pair := range pairs {
		parts := strings.Split(pair, " -> ")
		a := z.PretrainedByName(parts[0])
		b := z.PretrainedByName(parts[1])
		if a != nil && b != nil && a.Profile.Seed == b.Profile.Seed {
			ambiguous++
		}
	}
	if len(pairs) > 0 && ambiguous == 0 {
		t.Logf("confusion pairs: %v", pairs)
		t.Fatal("expected at least some confusion inside ambiguity clusters")
	}
}

func TestNoiseToleranceDegradesGracefully(t *testing.T) {
	// Noise magnitudes are scaled to this reproduction's kernel-duration
	// scale (paper's 20µs ≈ one typical kernel duration ≈ 2µs here; see
	// EXPERIMENTS.md).
	clf, _, test := getTrained(t)
	clean := clf.Accuracy(test)
	light := clf.NoiseAccuracy(test, 1, 2, 1)
	heavy := clf.NoiseAccuracy(test, 16, 2, 1)
	if light < clean-0.2 {
		t.Fatalf("light noise dropped accuracy too much: %v -> %v", clean, light)
	}
	if heavy > light+0.1 {
		t.Fatalf("heavier noise (%v) should not beat lighter noise (%v)", heavy, light)
	}
	if heavy < 0.25 {
		t.Fatalf("heavy-noise accuracy %v collapsed below usefulness", heavy)
	}
}

func TestPredictTopK(t *testing.T) {
	clf, _, test := getTrained(t)
	s := test.Samples[0]
	top := clf.PredictTopK(s.Trace, 3)
	if len(top) != 3 {
		t.Fatalf("topk returned %d", len(top))
	}
	if top[0] != clf.Predict(s.Trace) {
		t.Fatal("top-1 must match Predict")
	}
	seen := map[string]bool{}
	for _, name := range top {
		if seen[name] {
			t.Fatal("topk has duplicates")
		}
		seen[name] = true
	}
}

func TestCentroidBaselineWeakerUnderNoise(t *testing.T) {
	clf, train, test := getTrained(t)
	base := NewCentroidBaseline(train, 64)
	// Both work on clean data; under heavy per-kernel noise the CNN should
	// hold up at least as well as the rigid centroid matcher.
	noisy := &Dataset{Classes: test.Classes}
	for i, s := range test.Samples {
		tr := s.Trace.Clone()
		tr.PerturbKernels(8, 2, uint64(i))
		noisy.Samples = append(noisy.Samples, Sample{Trace: tr, Label: s.Label, FromModel: s.FromModel})
	}
	cnnAcc := clf.Accuracy(noisy)
	centroidAcc := base.Accuracy(noisy)
	t.Logf("noisy accuracy: cnn %v centroid %v", cnnAcc, centroidAcc)
	if cnnAcc < centroidAcc-0.15 {
		t.Fatalf("CNN (%v) should not be far below centroid baseline (%v) under noise", cnnAcc, centroidAcc)
	}
}

func TestUnsupportedImageSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad image size must panic")
		}
	}()
	NewClassifier(48, []string{"a"}, 1)
}

func TestXLATraceClassifiable(t *testing.T) {
	// A trace with an XLA region must be preprocessable and classifiable
	// without panicking (§5.4.3).
	clf, _, _ := getTrained(t)
	z := getZoo(t)
	var xla *zoo.Pretrained
	for _, p := range z.Pretrained {
		if p.Profile.XLA {
			xla = p
			break
		}
	}
	if xla == nil {
		t.Skip("no XLA release in reduced zoo")
	}
	name := clf.Predict(xla.Trace(gpusim.Options{}))
	if name == "" {
		t.Fatal("empty prediction")
	}
}
