// Command benchsnap records and gates the repository's benchmark
// trajectory. It produces two committed snapshot files:
//
//	BENCH_extract.json   — deterministic extraction economics: physical
//	                       bit reads, hammer rounds, clone match, and
//	                       scheduler savings for the baseline and the
//	                       information-ordered scheduler on an identical
//	                       faulted channel. These are exact simulated
//	                       counts: the gate compares them for equality,
//	                       so a regression of even one hammer round is
//	                       visible in review.
//	BENCH_substrate.json — substrate hot-path timings (GEMM, transformer
//	                       forward/backward, a dev-set prediction pass,
//	                       trace simulation/render, Algorithm 1)
//	                       normalized by an in-process
//	                       scalar-triad calibration loop, so the numbers
//	                       track the code, not the machine. The gate
//	                       compares them within a tolerance (default
//	                       ±20%, -tol to adjust).
//
// Usage:
//
//	benchsnap -write            # regenerate both snapshots
//	benchsnap -gate             # compare current numbers to snapshots
//	benchsnap -gate -quick      # deterministic extract gate only (CI smoke)
//	benchsnap -gate -tol 0.5    # relax the timing tolerance
//
// A gate failure exits non-zero and prints every violated metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"

	"decepticon/internal/extract"
	"decepticon/internal/fsatomic"
	"decepticon/internal/gpusim"
	"decepticon/internal/ieee754"
	"decepticon/internal/obs"
	"decepticon/internal/rng"
	"decepticon/internal/sidechannel"
	"decepticon/internal/stats"
	"decepticon/internal/task"
	"decepticon/internal/tensor"
	"decepticon/internal/traceimg"
	"decepticon/internal/transformer"
	"decepticon/internal/zoo"
)

// snapshot is one committed benchmark file. Exact metrics are
// deterministic simulated counts compared for equality; Normalized
// metrics are timing ratios compared within the gate tolerance.
type snapshot struct {
	Version    int                `json:"version"`
	Kind       string             `json:"kind"`
	Note       string             `json:"note"`
	Exact      map[string]float64 `json:"exact,omitempty"`
	Normalized map[string]float64 `json:"normalized,omitempty"`
}

const (
	extractFile   = "BENCH_extract.json"
	substrateFile = "BENCH_substrate.json"
)

func main() {
	write := flag.Bool("write", false, "regenerate the committed snapshot files")
	gate := flag.Bool("gate", false, "compare current measurements against the committed snapshots")
	quick := flag.Bool("quick", false, "deterministic extract metrics only (skip timing measurements)")
	tol := flag.Float64("tol", 0.20, "relative tolerance for normalized timing metrics")
	dir := flag.String("dir", ".", "directory holding the snapshot files")
	flag.Parse()
	if *write == *gate {
		fmt.Fprintln(os.Stderr, "benchsnap: exactly one of -write or -gate is required")
		os.Exit(2)
	}

	cur := map[string]*snapshot{extractFile: extractSnapshot()}
	if !*quick {
		cur[substrateFile] = substrateSnapshot()
	}

	if *write {
		for name, s := range cur {
			path := filepath.Join(*dir, name)
			data, err := json.MarshalIndent(s, "", "  ")
			if err != nil {
				fatal(err)
			}
			// Atomic (temp + rename): a crash mid-write must never leave a
			// truncated snapshot that would then be committed and gate
			// every future run against garbage.
			if err := fsatomic.WriteFile(path, append(data, '\n')); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s\n", path)
		}
		return
	}

	failures := 0
	for name, curSnap := range cur {
		path := filepath.Join(*dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			fatal(fmt.Errorf("no committed snapshot %s (run benchsnap -write): %w", path, err))
		}
		want := &snapshot{}
		if err := json.Unmarshal(data, want); err != nil {
			fatal(fmt.Errorf("%s: %w", path, err))
		}
		failures += compare(name, want, curSnap, *tol)
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "benchsnap: gate FAILED (%d metric(s) out of bounds)\n", failures)
		os.Exit(1)
	}
	fmt.Println("benchsnap: gate passed")
}

// compare reports violations of one snapshot and returns their count.
func compare(name string, want, got *snapshot, tol float64) int {
	bad := 0
	for _, key := range sortedKeys(want.Exact) {
		w, g := want.Exact[key], got.Exact[key]
		if w != g {
			fmt.Fprintf(os.Stderr, "%s: %s = %v, snapshot says %v (exact metric — must match)\n",
				name, key, g, w)
			bad++
		}
	}
	for _, key := range sortedKeys(want.Normalized) {
		w, g := want.Normalized[key], got.Normalized[key]
		if w == 0 {
			continue
		}
		if r := math.Abs(g-w) / w; r > tol {
			fmt.Fprintf(os.Stderr, "%s: %s = %.4f, snapshot says %.4f (%.1f%% off, tolerance %.0f%%)\n",
				name, key, g, w, 100*r, 100*tol)
			bad++
		}
	}
	// New metrics the snapshot has never seen are not failures (the next
	// -write picks them up), but surface them so a stale file is visible.
	for _, key := range sortedKeys(got.Exact) {
		if _, ok := want.Exact[key]; !ok {
			fmt.Fprintf(os.Stderr, "%s: new exact metric %s = %v not in snapshot (run benchsnap -write)\n",
				name, key, got.Exact[key])
		}
	}
	return bad
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchsnap:", err)
	os.Exit(1)
}

// ----------------------------------------------------------- extract gate

// extractSnapshot runs the baseline and the information-ordered
// scheduler over the same deterministic victim and faulted channel —
// the operating point of the reliability experiment's comparison rows —
// and records the exact extraction economics. Everything here is
// simulated and seeded, so the values are bit-stable across runs and
// machines of the same architecture.
func extractSnapshot() *snapshot {
	cfg := zoo.SmallBuildConfig()
	cfg.NumPretrained = 2
	cfg.NumFineTuned = 2
	cfg.PretrainExamples = 60
	cfg.FineTuneExamples = 60
	z := zoo.MustBuild(cfg)
	victim := z.FineTuned[0]
	plan := &sidechannel.FaultPlan{Seed: 9, TransientRate: 0.02, StuckRate: 0.0002}

	run := func(scheduled bool) (*extract.Stats, float64) {
		oracle := sidechannel.NewOracle(victim.Model())
		oracle.SetFaultPlan(plan.ForVictim(victim.Name))
		ecfg := extract.DefaultConfig()
		ecfg.ReadRepeats = 3
		ecfg.StopMatchRate = 2 // full extraction: compare complete read schedules
		if scheduled {
			ecfg.Schedule = extract.DefaultSchedulerConfig()
		}
		ex := &extract.Extractor{
			Pre:    victim.Pretrained.Model(),
			Oracle: oracle,
			Cfg:    ecfg,
		}
		clone, st, err := ex.Run(victim.Task.Labels, victim.Dev)
		if err != nil {
			fatal(err)
		}
		match := stats.MatchRate(victim.Model().Predictions(victim.Dev), clone.Predictions(victim.Dev))
		return st, match
	}
	base, baseMatch := run(false)
	sched, schedMatch := run(true)

	ratio := float64(base.PhysicalBitReads) / float64(sched.PhysicalBitReads)
	if ratio < 1.5 {
		fatal(fmt.Errorf("scheduler saves only %.2fx physical reads (acceptance floor 1.5x)", ratio))
	}
	if schedMatch < baseMatch {
		fatal(fmt.Errorf("scheduled clone match %.4f below baseline %.4f", schedMatch, baseMatch))
	}

	return &snapshot{
		Version: 1,
		Kind:    "extract",
		Note:    "deterministic extraction economics on a seeded faulted channel (ReadRepeats=3); exact counts, gated for equality",
		Exact: map[string]float64{
			"baseline_phys_reads":     float64(base.PhysicalBitReads),
			"baseline_hammer_rounds":  float64(base.HammerRounds()),
			"baseline_match":          baseMatch,
			"scheduled_phys_reads":    float64(sched.PhysicalBitReads),
			"scheduled_hammer_rounds": float64(sched.HammerRounds()),
			"scheduled_match":         schedMatch,
			"scheduled_bits_elided":   float64(sched.BitsElided),
			"scheduled_vote_width":    sched.MeanVoteWidth(),
			"scheduled_probe_reads":   float64(sched.ProbeReads),
		},
	}
}

// --------------------------------------------------------- substrate gate

// calibrate measures a fixed scalar-triad loop and returns its ns per
// iteration. Dividing every substrate timing by this factor cancels the
// host's raw float throughput, leaving a machine-portable ratio that
// moves only when the measured code changes shape.
func calibrate() float64 {
	a := make([]float32, 4096)
	c := make([]float32, 4096)
	for i := range a {
		a[i] = float32(i%7) * 0.25
		c[i] = float32(i%5) * 0.5
	}
	s := float32(1.0001)
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := range a {
				a[j] += s * c[j]
			}
		}
	})
	return float64(res.NsPerOp())
}

func substrateSnapshot() *snapshot {
	calib := calibrate()
	norm := map[string]float64{}
	measure := func(name string, fn func(b *testing.B)) {
		res := testing.Benchmark(fn)
		norm[name+"_norm"] = float64(res.NsPerOp()) / calib
	}

	r := rng.New(1)
	x := tensor.Randn(16, 64, 1, r)
	w := tensor.Randn(64, 64, 1, r)
	measure("gemm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tensor.MatMul(x, w)
		}
	})
	measure("gemm_nt", func(b *testing.B) {
		wt := w.Transpose()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tensor.MatMulNT(x, wt)
		}
	})

	m := transformer.New(transformer.Family()["base"], 1)
	tokens := []int{0, 5, 9, 13, 2, 7, 11, 3, 8, 1, 6, 4}
	measure("forward", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.Logits(tokens)
		}
	})
	small := transformer.Family()["small"]
	sm := transformer.New(small, 1)
	dev := task.GLUEAnalogs()[0].Generate(small.Vocab, 16, 1)
	measure("predictions", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sm.Predictions(dev)
		}
	})
	measure("train_step", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.LossAndBackward(tokens, i%2)
			m.ZeroGrads()
		}
	})

	cfg := transformer.Family()["large"]
	prof := gpusim.Profile{Source: "hf", Framework: gpusim.PyTorch, Seed: 3}
	measure("trace_sim", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gpusim.SimulateTransformer(cfg, nil, prof, gpusim.Options{})
		}
	})
	tr := gpusim.SimulateTransformer(cfg, nil, prof, gpusim.Options{})
	measure("trace_render", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			traceimg.Render(tr, 64)
		}
	})

	ecfg := extract.DefaultConfig()
	victimW := float32(0.01908)
	read := func(bit int) int { return ieee754.Bit(victimW, bit) }
	measure("extract_weight", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ecfg.ExtractWeight(0.018, read)
		}
	})

	// Telemetry instruments ride the innermost attack loops (counters on
	// every oracle read, progress credits on every tensor boundary), so
	// their per-call cost is gated alongside the substrate math.
	ctr := obs.New().Counter("bench.counter")
	measure("obs_counter_add", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ctr.Add(1)
		}
	})
	hist := obs.New().Histogram("bench.hist")
	measure("obs_histogram_observe", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hist.Observe(float64(i % 1000))
		}
	})
	tracker := obs.NewProgress()
	item := tracker.Item("victim")
	measure("obs_progress_complete", func(b *testing.B) {
		item.SetPlanned(int64(b.N) + 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			item.Complete(int64(i)+1, "tensor")
		}
	})

	// Zoo cold start: a warm store open reads the manifest, verifies every
	// object, and hands back lazy handles without decoding any tensor.
	zcfg := zoo.SmallBuildConfig()
	zcfg.NumPretrained = 4
	zcfg.NumFineTuned = 8
	zcfg.PretrainExamples = 20
	zcfg.PretrainEpochs = 1
	zcfg.FineTuneExamples = 20
	zcfg.FineTuneEpochs = 1
	storeDir, err := os.MkdirTemp("", "benchsnap-zoo-")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(storeDir)
	if _, _, err := zoo.BuildOrOpenStore(context.Background(), zcfg, storeDir, ""); err != nil {
		fatal(err)
	}
	measure("zoo_store_open", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := zoo.BuildOrOpenStore(context.Background(), zcfg, storeDir, ""); err != nil {
				b.Fatal(err)
			}
		}
	})
	// Zoo reload: one stored fine-tuned model dropped and read back — the
	// per-victim cost of a store-backed campaign that releases its models.
	// The open is warm, so its handles are lazy.
	z, _, err := zoo.BuildOrOpenStore(context.Background(), zcfg, storeDir, "")
	if err != nil {
		fatal(err)
	}
	ft := z.FineTuned[0]
	measure("zoo_store_reload", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ft.Release()
			ft.Model()
		}
	})

	return &snapshot{
		Version:    1,
		Kind:       "substrate",
		Note:       fmt.Sprintf("hot-path timings normalized by a scalar-triad calibration loop (recorded on %s/%s); gated within a relative tolerance", runtime.GOOS, runtime.GOARCH),
		Normalized: norm,
	}
}
