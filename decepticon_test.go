package decepticon_test

// Public-API tests: everything here uses only the root package, exactly
// as an external consumer would.

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"

	"decepticon"
)

var (
	apiOnce sync.Once
	apiZoo  *decepticon.Zoo
	apiAtk  *decepticon.Attack
)

func getAPI(t *testing.T) (*decepticon.Zoo, *decepticon.Attack) {
	t.Helper()
	apiOnce.Do(func() {
		cfg := decepticon.TraceOnlyZooConfig()
		cfg.NumPretrained = 6
		cfg.NumFineTuned = 8
		apiZoo = decepticon.MustBuildZoo(cfg)
		atk, err := decepticon.NewAttack(apiZoo, decepticon.DefaultPrepareConfig())
		if err != nil {
			panic(err)
		}
		apiAtk = atk
	})
	return apiZoo, apiAtk
}

func TestPublicEndToEnd(t *testing.T) {
	z, atk := getAPI(t)
	rep, err := atk.Run(z.FineTuned[0], decepticon.RunOptions{MeasureSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Identified == "" {
		t.Fatal("no identification")
	}
	if rep.Extract == nil {
		t.Fatal("no extraction stats")
	}
	if rep.MatchRate < 0.9 {
		t.Fatalf("match rate %v", rep.MatchRate)
	}
	if rep.Extract.ReductionFactor() < 5 {
		t.Fatalf("reduction %v", rep.Extract.ReductionFactor())
	}
}

// A second open of the same store trains nothing, reuses every model,
// and returns the same population.
func TestPublicZooStore(t *testing.T) {
	cfg := decepticon.TraceOnlyZooConfig()
	cfg.NumPretrained = 2
	cfg.NumFineTuned = 2
	dir := t.TempDir()
	a, cold, err := decepticon.BuildOrOpenZooStore(context.Background(), cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	total := cfg.NumPretrained + cfg.NumFineTuned
	if cold.Trained() != total {
		t.Fatalf("cold open trained %d models, want %d", cold.Trained(), total)
	}
	b, warm, err := decepticon.BuildOrOpenZooStore(context.Background(), cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Trained() != 0 || warm.Reused != total {
		t.Fatalf("warm open: trained %d, reused %d; want 0/%d", warm.Trained(), warm.Reused, total)
	}
	for i, p := range a.Pretrained {
		if b.Pretrained[i].Name != p.Name {
			t.Fatalf("pre-trained %d: warm open returned %s, want %s", i, b.Pretrained[i].Name, p.Name)
		}
	}
	for i, f := range a.FineTuned {
		if b.FineTuned[i].Name != f.Name {
			t.Fatalf("fine-tuned %d: warm open returned %s, want %s", i, b.FineTuned[i].Name, f.Name)
		}
	}
}

func TestPublicExperimentRegistry(t *testing.T) {
	ids := decepticon.ExperimentIDs()
	if len(ids) < 20 {
		t.Fatalf("only %d experiments registered", len(ids))
	}
	titles := decepticon.ExperimentTitles()
	if len(titles) != len(ids) {
		t.Fatal("titles/ids mismatch")
	}
	// Zoo-free experiments run through the public Experiments type.
	env := decepticon.NewExperiments(decepticon.ScaleSmall)
	var buf bytes.Buffer
	if err := env.Run("fig10", &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Fig 10") {
		t.Fatal("experiment output missing header")
	}
	if err := env.Run("not-an-experiment", &buf); err == nil {
		t.Fatal("unknown id must error")
	}
}

func TestPublicExtractionConfig(t *testing.T) {
	cfg := decepticon.DefaultExtractionConfig()
	if cfg.SkipThreshold != 0.001 || cfg.MaxBitsPerWeight != 2 {
		t.Fatalf("unexpected default operating point: %+v", cfg)
	}
}
