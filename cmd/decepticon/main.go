// Command decepticon runs the end-to-end two-level model extraction
// attack against a randomly chosen black-box victim from the model zoo
// and prints the attack report.
//
// Usage:
//
//	decepticon                 # small zoo, first victim
//	decepticon -victim 7 -adv  # attack victim #7 and run the adversarial stage
//	decepticon -scale full     # paper-sized population
//	decepticon -scale tiny -all -metrics run.json,run.prom
//	decepticon -pprof localhost:6060   # live /metrics and /debug/pprof
//	decepticon -scale tiny -all -trace trace.json -log-level info
//	decepticon -faults seed=7,transient=0.2 -flight flight.json
//
// Ctrl-C cancels the run gracefully: in-flight extractions checkpoint
// (with -checkpoint), every requested artifact (-metrics, -trace,
// -flight) is still written, and a rerun with -resume picks up exactly
// where the interrupted campaign stopped.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"strings"

	"decepticon"
	"decepticon/internal/cliconfig"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("decepticon: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var opts cliconfig.Options
	opts.RegisterCommon(flag.CommandLine)
	opts.RegisterStore(flag.CommandLine)
	opts.RegisterFaults(flag.CommandLine)
	opts.RegisterFlight(flag.CommandLine)
	opts.RegisterModalities(flag.CommandLine)
	opts.RegisterIdentify(flag.CommandLine)
	var (
		victim  = flag.Int("victim", 0, "index of the fine-tuned victim model")
		adv     = flag.Bool("adv", false, "run the adversarial stage (slower)")
		subs    = flag.Int("substitutes", 4, "number of distillation substitutes for -adv")
		all     = flag.Bool("all", false, "attack every victim and print campaign statistics")
		noise   = flag.Float64("noise", 0, "oracle bit-error rate (0 = clean channel)")
		repeats = flag.Int("repeats", 0, "majority-vote reads per bit when -noise > 0 (odd; 0 = single read)")
	)
	flag.Parse()

	cfg, err := opts.ZooConfig()
	if err != nil {
		return err
	}
	modalities, jammed, err := opts.ModalitySets()
	if err != nil {
		return err
	}
	rt, err := cliconfig.Setup(&opts)
	if err != nil {
		return err
	}
	defer rt.Close()

	cfg.Workers = opts.Workers
	cfg.Obs = rt.Registry
	log.Printf("building model zoo (%d pre-trained, %d fine-tuned)...",
		cfg.NumPretrained, cfg.NumFineTuned)
	z, err := opts.LoadZoo(rt.Ctx, cfg)
	if err != nil {
		if z == nil {
			return err
		}
		log.Printf("zoo store: %v", err)
	}

	log.Printf("training the pre-trained model extractor...")
	prepCfg := decepticon.DefaultPrepareConfig()
	if opts.Scale == "tiny" {
		prepCfg.SamplesPerModel = 2
		prepCfg.ImgSize = 32
		prepCfg.Epochs = 8
	}
	prepCfg.Workers = opts.Workers
	prepCfg.Obs = rt.Registry
	prepCfg.Modalities = modalities
	prepCfg.Hierarchical = opts.Hier
	atk, err := decepticon.NewAttackContext(rt.Ctx, z, prepCfg)
	if err != nil {
		return err
	}
	if *noise > 0 && *repeats > 0 {
		ec := decepticon.DefaultExtractionConfig()
		ec.ReadRepeats = *repeats
		atk.ExtractCfg = ec
	}

	if *all {
		log.Printf("attacking all %d victims...", len(z.FineTuned))
		c, err := atk.RunAllContext(rt.Ctx, z.FineTuned, decepticon.RunOptions{
			MeasureSeed: 1, Workers: opts.Workers, BitErrorRate: *noise,
			FaultPlan: rt.Plan, ScheduledExtraction: opts.Scheduled,
			CheckpointDir: opts.Checkpoint, Resume: opts.Resume,
			ReadBudget: opts.ReadBudget, FlightPath: opts.Flight,
			Modalities: modalities, Jammed: jammed,
			ReleaseModels: opts.ReleaseModels,
		})
		if err != nil {
			if c != nil && errors.Is(err, context.Canceled) {
				log.Printf("interrupted after %d victims (rerun with -resume to continue)", c.Victims)
				printCampaign(c, rt)
				return nil
			}
			return err
		}
		printCampaign(c, rt)
		return nil
	}

	if *victim < 0 || *victim >= len(z.FineTuned) {
		return fmt.Errorf("victim index %d out of range [0, %d)", *victim, len(z.FineTuned))
	}
	target := z.FineTuned[*victim]
	log.Printf("attacking black-box victim %q...", target.Name)

	rep, err := atk.RunContext(rt.Ctx, target, decepticon.RunOptions{
		MeasureSeed:         uint64(*victim) + 1,
		Adversarial:         *adv,
		NumSubstitutes:      *subs,
		BitErrorRate:        *noise,
		FaultPlan:           rt.Plan,
		ScheduledExtraction: opts.Scheduled,
		CheckpointDir:       opts.Checkpoint,
		Resume:              opts.Resume,
		ReadBudget:          opts.ReadBudget,
		FlightPath:          opts.Flight,
		Modalities:          modalities,
		Jammed:              jammed,
		ReleaseModels:       opts.ReleaseModels,
	})
	if err != nil {
		return err
	}

	fmt.Println("──────────────────────── attack report ────────────────────────")
	fmt.Printf("victim:                 %s\n", rep.Victim)
	fmt.Printf("true pre-trained model: %s\n", rep.TruePretrained)
	fmt.Printf("identified:             %s (correct: %v)\n", rep.Identified, rep.CorrectIdentity)
	if len(rep.Modalities) > 0 {
		fmt.Printf("modalities:             %s\n", strings.Join(rep.Modalities, ", "))
	}
	if len(rep.JammedModalities) > 0 {
		fmt.Printf("jammed sensors:         %s (identification degraded)\n",
			strings.Join(rep.JammedModalities, ", "))
	}
	if rep.UsedQueryProbes {
		fmt.Printf("query probes:           %d black-box queries\n", rep.ProbeQueries)
	}
	if rep.ExtractError != "" {
		fmt.Printf("extraction failed:      %s\n", rep.ExtractError)
		return nil
	}
	if rep.ExtractSkipped != "" {
		fmt.Printf("extraction skipped:     %s\n", rep.ExtractSkipped)
		return nil
	}
	if rep.ExtractInterrupted {
		reason := "read budget exhausted"
		if rt.Interrupted() {
			reason = "cancelled"
		}
		fmt.Printf("extraction interrupted: %s (checkpointed; rerun with -resume)\n", reason)
		return nil
	}
	if rep.Extract == nil {
		fmt.Println("extraction skipped")
		return nil
	}
	st := rep.Extract
	fmt.Printf("weights handled:        %d (+%d head), %.1f%% correctly pruned\n",
		st.WeightsTotal, st.HeadWeights, 100*st.WeightsCorrectlyPruned())
	fmt.Printf("bits read (logical):    %d of %d (%.1fx reduction)\n",
		st.LogicalBitsRead(), st.BitsTotal+32*int64(st.HeadWeights), st.ReductionFactor())
	if st.PhysicalBitReads != st.LogicalBitsRead() {
		fmt.Printf("oracle reads (physical):%d (majority vote ×%d)\n",
			st.PhysicalBitReads, st.EffectiveReadRepeats)
	}
	if st.ReadFaults > 0 || st.Retries > 0 {
		fmt.Printf("channel faults:         %d faulted reads, %d retries, %d backoff rounds, %d escalations\n",
			st.ReadFaults, st.Retries, st.BackoffRounds, st.Escalations)
	}
	if st.WeightsDegraded > 0 {
		fmt.Printf("degraded:               %d weights (%d tensors) fell back to baseline; coverage %.1f%%\n",
			st.WeightsDegraded, st.TensorsDegraded, 100*st.Coverage())
	}
	fmt.Printf("victim acc / clone acc: %.3f / %.3f\n", rep.VictimAcc, rep.CloneAcc)
	fmt.Printf("matched predictions:    %.1f%%\n", 100*rep.MatchRate)
	if *adv {
		fmt.Printf("adversarial (clone):    %.1f%% success\n", 100*rep.AdvClone)
		for i, s := range rep.AdvSubstitutes {
			fmt.Printf("adversarial (sub %d):    %.1f%% success\n", i+1, 100*s)
		}
	}
	return nil
}

// printCampaign renders the campaign summary block, including a partial
// one from an interrupted run.
func printCampaign(c *decepticon.Campaign, rt *cliconfig.Runtime) {
	fmt.Println("──────────────────────── campaign report ───────────────────────")
	fmt.Printf("victims attacked:        %d\n", c.Victims)
	fmt.Printf("identified correctly:    %d (%.1f%%)\n", c.Identified, 100*c.IdentificationRate())
	fmt.Printf("resolved via probes:     %d\n", c.ProbeResolved)
	if c.IdentifyDegraded > 0 {
		fmt.Printf("degraded identifications:%d (jammed or absent sensors)\n", c.IdentifyDegraded)
	}
	fmt.Printf("bus-probe arch checks:   %d passed\n", c.ArchConfirmed)
	if c.ExtractFailed > 0 {
		fmt.Printf("extractions failed:      %d\n", c.ExtractFailed)
	}
	if c.ExtractSkipped > 0 {
		fmt.Printf("extractions skipped:     %d (architecture mismatch)\n", c.ExtractSkipped)
	}
	if c.ExtractInterrupted > 0 {
		fmt.Printf("extractions interrupted: %d (checkpointed; rerun with -resume)\n", c.ExtractInterrupted)
	}
	if c.TensorsDegraded > 0 || rt.Plan != nil {
		fmt.Printf("tensors degraded:        %d (mean coverage %.1f%%)\n",
			c.TensorsDegraded, 100*c.MeanCoverage)
	}
	fmt.Printf("mean clone match rate:   %.1f%%\n", 100*c.MeanMatchRate)
	fmt.Printf("mean bit-read reduction: %.1fx\n", c.MeanReduction)
	fmt.Printf("bits read (logical):     %d\n", c.TotalBitsRead)
	fmt.Printf("oracle reads (physical): %d\n", c.TotalPhysicalReads)
	fmt.Printf("rowhammer rounds:        %d\n", c.TotalHammerRounds())
}
