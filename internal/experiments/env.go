// Package experiments regenerates every table and figure of the paper's
// evaluation (§4, §7, §8) on the simulated substrate. Each experiment is a
// function on Env returning a structured result with a text rendering;
// cmd/experiments, the examples, and the benchmark harness all share
// these entry points. EXPERIMENTS.md records paper-vs-measured values.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sync"

	"decepticon/internal/core"
	"decepticon/internal/fingerprint"
	"decepticon/internal/obs"
	"decepticon/internal/sidechannel"
	"decepticon/internal/zoo"
)

// Scale selects the experiment budget.
type Scale int

const (
	// ScaleSmall uses the reduced zoo (small architectures, ~1 min total)
	// — the default for tests and benchmarks.
	ScaleSmall Scale = iota
	// ScaleFull uses the paper-sized population: 70 pre-trained and 170
	// fine-tuned models across all architecture sizes (several minutes).
	ScaleFull
)

// Env lazily builds and caches the shared expensive state: the model zoo,
// the trace dataset, and the trained level-1 classifier.
type Env struct {
	Scale Scale

	zooOnce sync.Once
	zoo     *zoo.Zoo

	atkOnce sync.Once
	attack  *core.Attack

	dataOnce sync.Once
	trainSet *fingerprint.Dataset
	testSet  *fingerprint.Dataset

	// Progress, if non-nil, receives coarse progress lines.
	Progress func(format string, args ...any)

	// StorePath, when non-empty, keeps the zoo in a content-addressed
	// store at this directory — lazy handles, incremental rebuild
	// (DESIGN.md §16). Zoo construction dominates the cost of a
	// full-scale run, so a rerun against the store skips it.
	StorePath string

	// Workers bounds the goroutines used for zoo construction, trace
	// measurement, and attack campaigns; <= 0 selects GOMAXPROCS. All
	// results are identical for any value (see internal/parallel).
	Workers int

	// Obs, if non-nil, collects counters, gauges, and phase timings from
	// every stage the environment drives (zoo build, classifier training,
	// extraction, campaigns). See internal/obs.
	Obs *obs.Registry

	// FaultPlan, when non-nil, degrades the rowhammer channel of every
	// attack-driving experiment with seeded structured faults (see
	// sidechannel.FaultPlan). The reliability experiment additionally
	// reports it as a custom sweep point.
	FaultPlan *sidechannel.FaultPlan

	// CheckpointDir / Resume thread extraction checkpointing into the
	// attack-driving experiments (see core.RunOptions).
	CheckpointDir string
	Resume        bool

	// ReadBudget bounds the oracle read attempts of each attack-driving
	// extraction; an extraction exceeding it checkpoints and reports
	// interrupted (see core.RunOptions). 0 means unlimited.
	ReadBudget int64

	// FlightPath, when non-empty, is where attack-driving experiments dump
	// the flight recorder if an extraction is interrupted, fails, or
	// degrades tensors and no CheckpointDir is set (see core.RunOptions).
	FlightPath string

	// Ctx, when non-nil, threads cancellation into the environment's
	// heavy phases: zoo construction, classifier training, and the
	// attack-driving experiments' extractions (which checkpoint and
	// report interrupted, exactly as under a read budget). nil runs
	// uncancelled.
	Ctx context.Context
}

// ctx returns the environment's context, never nil.
func (e *Env) ctx() context.Context {
	if e.Ctx != nil {
		return e.Ctx
	}
	return context.Background()
}

// NewEnv returns an experiment environment at the given scale.
func NewEnv(scale Scale) *Env { return &Env{Scale: scale} }

func (e *Env) logf(format string, args ...any) {
	if e.Progress != nil {
		e.Progress(format, args...)
	}
}

// ZooConfig returns the build configuration for the environment's scale.
func (e *Env) ZooConfig() zoo.BuildConfig {
	cfg := zoo.SmallBuildConfig()
	if e.Scale == ScaleFull {
		cfg = zoo.DefaultBuildConfig()
	}
	cfg.Workers = e.Workers
	return cfg
}

// UseZoo injects a pre-built population. It must be called before the
// first Zoo() use and is a no-op afterwards.
func (e *Env) UseZoo(z *zoo.Zoo) {
	e.zooOnce.Do(func() { e.zoo = z })
}

// Zoo returns the (cached) model population.
func (e *Env) Zoo() *zoo.Zoo {
	e.zooOnce.Do(func() {
		cfg := e.ZooConfig()
		cfg.Obs = e.Obs
		done := 0
		cfg.OnProgress = func(stage string, d, total int) {
			done++
			if done%25 == 0 {
				e.logf("zoo: %s %d/%d", stage, d, total)
			}
		}
		e.logf("building model zoo (%d pre-trained, %d fine-tuned)...",
			cfg.NumPretrained, cfg.NumFineTuned)
		var z *zoo.Zoo
		var err error
		if e.StorePath != "" {
			z, _, err = zoo.BuildOrOpenStore(e.ctx(), cfg, e.StorePath, "")
		} else {
			z, err = zoo.BuildContext(e.ctx(), cfg)
		}
		if err != nil {
			if z == nil {
				// The build itself failed or was cancelled — there is no
				// population to continue with. Env configs come from the
				// package's own presets, so like Attack() this is not a
				// recoverable input error.
				panic(err)
			}
			// A failed manifest write leaves the opened zoo usable.
			e.logf("zoo store: %v", err)
		}
		e.zoo = z
	})
	return e.zoo
}

// Attack returns the (cached) prepared Decepticon attack, training the
// level-1 classifier on first use.
func (e *Env) Attack() *core.Attack {
	e.atkOnce.Do(func() {
		e.logf("training the pre-trained model extractor (CNN)...")
		cfg := core.DefaultPrepareConfig()
		if e.Scale == ScaleFull {
			// 70 classes need a longer schedule than the reduced zoo.
			cfg.Epochs = 90
		}
		cfg.Workers = e.Workers
		cfg.Obs = e.Obs
		atk, err := core.PrepareContext(e.ctx(), e.Zoo(), cfg)
		if err != nil {
			// Env configs come from the package's own presets; a failure
			// here is a programmer error, not bad user input.
			panic(err)
		}
		e.attack = atk
	})
	return e.attack
}

// Datasets returns a (cached) 80/20 split trace dataset, as §5.4.2 uses.
func (e *Env) Datasets() (train, test *fingerprint.Dataset) {
	e.dataOnce.Do(func() {
		d := fingerprint.BuildDataset(e.Zoo(), 5, 1, e.Workers)
		e.trainSet, e.testSet = d.Split(0.8, 2)
	})
	return e.trainSet, e.testSet
}

// Renderer is implemented by every experiment result.
type Renderer interface {
	Render(w io.Writer)
}

// header prints an experiment banner.
func header(w io.Writer, id, title string) {
	fmt.Fprintf(w, "\n=== %s: %s ===\n", id, title)
}
