package core

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"decepticon/internal/fingerprint"
	"decepticon/internal/gpusim"
	"decepticon/internal/zoo"
)

var (
	hierOnce sync.Once
	hierZ    *zoo.Zoo
	hierAtk  *Attack
)

// getHierAttack prepares one shared attack with the family→release
// hierarchy as the trace identifier and every sensor classifier trained.
// Its zoo spans three families: two single-release ones answered
// directly, and one whose releases include ambiguity cluster C plus a
// release with a profile of its own.
func getHierAttack(t *testing.T) (*Attack, *zoo.Zoo) {
	t.Helper()
	hierOnce.Do(func() {
		cfg := tinyZooCfg()
		cfg.NumPretrained = 7
		cfg.NumFineTuned = 9
		hierZ = zoo.MustBuild(cfg)
		atk, err := Prepare(hierZ, PrepareConfig{
			SamplesPerModel: 2, ImgSize: 32, Epochs: 8, LR: 0.002, Seed: 7,
			Modalities:   fingerprint.AllModalities(),
			Hierarchical: true,
		})
		if err != nil {
			panic(err)
		}
		hierAtk = atk
	})
	return hierAtk, hierZ
}

// A hierarchical, fully multi-modal campaign must stay byte-identical for
// any worker count, like the flat one: the hierarchy's posterior is a
// pure function of the victim's trace.
func TestHierFusedCampaignWorkerInvariant(t *testing.T) {
	atk, z := getHierAttack(t)
	run := func(workers int) *Campaign {
		c, err := atk.RunAll(z.FineTuned, RunOptions{
			MeasureSeed: 5,
			Workers:     workers,
			Modalities:  fingerprint.AllModalities(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	serial := run(1)
	par := run(3)
	for i := range serial.Reports {
		a, b := *serial.Reports[i], *par.Reports[i]
		a.Clone, b.Clone = nil, nil
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("report %d diverges across worker counts:\nserial: %+v\npar:    %+v", i, a, b)
		}
		if got := strings.Join(a.Modalities, ","); got != "trace,power,counters" {
			t.Fatalf("report %d modalities %q, want all three", i, got)
		}
	}
}

// A trace-only run is the one-sensor case of fusion, and must identify
// exactly as the trace identifier's own top prediction: the flat CNN's
// PredictTopK, or the hierarchy's when the attack carries one — at unit
// weight and at the trace weight calibrated for fusion with other
// sensors. Disambiguation may then move the answer only inside that
// candidate's ambiguity cluster.
func TestTraceOnlyRunIdentifiesLikePredictTopK(t *testing.T) {
	hier, z := getHierAttack(t)
	weighted := *hier
	weighted.Hier = nil
	flat := weighted
	flat.FusionWeights = nil
	flatTop := func(tr *gpusim.Trace) string { return hier.Classifier.PredictTopK(tr, 3)[0] }
	cases := []struct {
		name string
		atk  *Attack
		top  func(*gpusim.Trace) string
	}{
		{"flat", &flat, flatTop},
		{"flat-weighted", &weighted, flatTop},
		{"hier", hier, func(tr *gpusim.Trace) string { return hier.Hier.PredictTopK(tr, 3)[0] }},
	}
	for _, tc := range cases {
		for i, v := range z.FineTuned {
			seed := uint64(40 + i)
			rep, err := tc.atk.Run(v, RunOptions{MeasureSeed: seed})
			if err != nil {
				t.Fatal(err)
			}
			want := tc.top(v.Trace(gpusim.Options{MeasureSeed: seed, JitterMagnitude: 0.3}))
			cluster := z.AmbiguousWith(z.PretrainedByName(want))
			if len(cluster) <= 1 {
				if rep.Identified != want || rep.UsedQueryProbes {
					t.Fatalf("%s %s: identified %q (probes %v), PredictTopK says %q",
						tc.name, v.Name, rep.Identified, rep.UsedQueryProbes, want)
				}
				continue
			}
			in := false
			for _, p := range cluster {
				in = in || p.Name == rep.Identified
			}
			if !in || !rep.UsedQueryProbes {
				t.Fatalf("%s %s: identified %q (probes %v) outside %q's ambiguity cluster",
					tc.name, v.Name, rep.Identified, rep.UsedQueryProbes, want)
			}
		}
	}
}
