package fingerprint

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"
)

var (
	hierOnce sync.Once
	testHier *Hierarchical
	hierErr  error
)

// getHier trains the shared hierarchy once; the tests that use it only
// read it.
func getHier(t *testing.T) (*Hierarchical, *Classifier, *Dataset, *Dataset) {
	t.Helper()
	flat, train, test := getTrained(t)
	z := getZoo(t)
	hierOnce.Do(func() {
		testHier, hierErr = TrainHierarchical(context.Background(), z, train, 64,
			TrainConfig{Epochs: 60, LR: 0.002, Seed: 4}, 2, nil)
	})
	if hierErr != nil {
		t.Fatal(hierErr)
	}
	return testHier, flat, train, test
}

// The hierarchy's structure must mirror the zoo: one family class per
// distinct ArchName, multi-release families gated behind a release
// classifier, single-release families answered directly.
func TestHierarchicalStructure(t *testing.T) {
	h, _, _, _ := getHier(t)
	z := getZoo(t)
	fams := map[string]int{}
	for _, p := range z.Pretrained {
		fams[p.ArchName]++
	}
	if len(h.Family.Classes) != len(fams) {
		t.Fatalf("family classifier has %d classes, zoo has %d families",
			len(h.Family.Classes), len(fams))
	}
	for fam, n := range fams {
		if n == 1 {
			if _, ok := h.Direct[fam]; !ok {
				t.Fatalf("single-release family %s missing from Direct", fam)
			}
			if _, ok := h.Release[fam]; ok {
				t.Fatalf("single-release family %s has a release classifier", fam)
			}
			continue
		}
		rc, ok := h.Release[fam]
		if !ok {
			t.Fatalf("multi-release family %s missing release classifier", fam)
		}
		// n family releases plus the trailing "__other__" training class.
		if len(rc.Classes) != n+1 || rc.Classes[n] != otherClass {
			t.Fatalf("family %s release classifier has classes %v, want %d releases + other",
				fam, rc.Classes, n)
		}
	}
}

// Acceptance: hierarchical identification matches the flat classifier on
// the paper population's held-out traces.
//
// Releases sharing a profile key (e.g. the four-way small-BERT cluster)
// have byte-identical execution fingerprints, so *within* such a cluster
// any classifier's pick is chance — the pipeline resolves those with the
// Disambiguate stage's query probes, not the trace classifier. The
// meaningful identification target is therefore cluster-aware: a
// prediction is right when it lands in the true release's ambiguity
// cluster. That metric is pinned as an exact match; raw accuracy (which
// includes the chance-level intra-cluster coin flips) is pinned to stay
// within one cluster-sized slice of flat's.
func TestHierarchicalMatchesFlatAccuracy(t *testing.T) {
	h, flat, _, test := getHier(t)
	z := getZoo(t)

	cluster := func(name string) map[string]bool {
		set := map[string]bool{}
		for _, q := range z.AmbiguousWith(z.PretrainedByName(name)) {
			set[q.Name] = true
		}
		return set
	}
	var flatHits, hierHits, flatCluster, hierCluster int
	for _, s := range test.Samples {
		truth := test.Classes[s.Label]
		in := cluster(truth)
		if p := flat.Predict(s.Trace); p == truth {
			flatHits++
			flatCluster++
		} else if in[p] {
			flatCluster++
		}
		if p := h.Predict(s.Trace); p == truth {
			hierHits++
			hierCluster++
		} else if in[p] {
			hierCluster++
		}
	}
	n := float64(len(test.Samples))
	flatAcc, hierAcc := float64(flatHits)/n, float64(hierHits)/n
	t.Logf("raw: flat %.3f, hierarchical %.3f; cluster-aware: flat %.3f, hierarchical %.3f",
		flatAcc, hierAcc, float64(flatCluster)/n, float64(hierCluster)/n)
	if hierCluster < flatCluster {
		t.Fatalf("cluster-aware accuracy %d/%d below flat %d/%d",
			hierCluster, len(test.Samples), flatCluster, len(test.Samples))
	}
	if hierAcc < flatAcc-0.1 {
		t.Fatalf("raw hierarchical accuracy %.3f more than 0.1 below flat %.3f", hierAcc, flatAcc)
	}
}

// PredictTopK keeps the flat contract: k distinct known candidates, the
// top-1 equal to Predict, every name resolvable in the zoo.
func TestHierarchicalPredictTopK(t *testing.T) {
	h, _, _, test := getHier(t)
	z := getZoo(t)
	for _, s := range test.Samples[:10] {
		top := h.PredictTopK(s.Trace, 3)
		if len(top) != 3 {
			t.Fatalf("top-3 returned %d candidates", len(top))
		}
		if top[0] != h.Predict(s.Trace) {
			t.Fatalf("top-1 %s != Predict %s", top[0], h.Predict(s.Trace))
		}
		seen := map[string]bool{}
		for _, name := range top {
			if z.PretrainedByName(name) == nil {
				t.Fatalf("candidate %q not in zoo", name)
			}
			if seen[name] {
				t.Fatalf("duplicate candidate %q", name)
			}
			seen[name] = true
		}
	}
}

// Sharded training is worker-count invariant: per-family seeds derive
// from family names, never from scheduling.
func TestHierarchicalWorkerCountInvariance(t *testing.T) {
	z := getZoo(t)
	_, train, test := getTrained(t)
	cfg := TrainConfig{Epochs: 12, LR: 0.002, Seed: 4}
	h1, err := TrainHierarchical(context.Background(), z, train, 64, cfg, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	h4, err := TrainHierarchical(context.Background(), z, train, 64, cfg, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range test.Samples {
		a, b := h1.Predict(s.Trace), h4.Predict(s.Trace)
		if a != b {
			t.Fatalf("prediction differs across worker counts: %s vs %s", a, b)
		}
	}
}

// Posterior is the hierarchy's entry into fusion: on every sample it is a
// distribution over the flat classes that is zero outside the top-scoring
// family, and its argmax is exactly the hierarchy's top prediction.
func TestHierarchicalPosteriorGatesOnFamily(t *testing.T) {
	z := getZoo(t)
	d := BuildDataset(z, 2, 21, 2)
	h, err := TrainHierarchical(context.Background(), z, d, 32,
		TrainConfig{Epochs: 3, LR: 0.002, Seed: 5}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(h.Classes, d.Classes) {
		t.Fatalf("hierarchy classes %v, want the dataset's %v", h.Classes, d.Classes)
	}
	for i, s := range d.Samples {
		post := h.Posterior(s.Trace)
		if len(post) != len(d.Classes) {
			t.Fatalf("sample %d: posterior over %d classes, want %d", i, len(post), len(d.Classes))
		}
		fam := h.Family.Predict(s.Trace)
		var sum float64
		for j, p := range post {
			sum += p
			if p != 0 && z.PretrainedByName(d.Classes[j]).ArchName != fam {
				t.Fatalf("sample %d: mass %v on %s outside family %s", i, p, d.Classes[j], fam)
			}
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("sample %d: posterior sums to %v", i, sum)
		}
		if got, want := d.Classes[ArgMax(post)], h.PredictTopK(s.Trace, 1)[0]; got != want {
			t.Fatalf("sample %d: posterior argmax %s, PredictTopK %s", i, got, want)
		}
	}
}
