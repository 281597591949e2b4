package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"decepticon/internal/core"
	"decepticon/internal/extract"
	"decepticon/internal/fingerprint"
	"decepticon/internal/gpusim"
	"decepticon/internal/queryfp"
	"decepticon/internal/rng"
	"decepticon/internal/service"
	"decepticon/internal/sidechannel"
	"decepticon/internal/stats"
	"decepticon/internal/transformer"
	"decepticon/internal/zoo"
)

// span is one timed interval of the traced run. Spans of one victim share
// Victim; Parent is the enclosing span (0 for a root). Self is the
// duration minus the part of it covered by child spans.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Victim int    `json:"victim"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine only.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) record(name string, parent, victim int, start, end time.Time) int {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Victim: victim, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
	return len(t.spans)
}

func (t *tracer) begin(name string, parent, victim int) int {
	now := time.Now()
	return t.record(name, parent, victim, now, now)
}

// end closes span id and returns its duration in nanoseconds.
func (t *tracer) end(id int) int64 {
	s := &t.spans[id-1]
	s.End = time.Since(t.t0).Nanoseconds()
	return s.End - s.Start
}

// write computes self times and writes every span as JSON.
func (t *tracer) write(path string) error {
	children := map[int][]span{}
	for _, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	for i := range t.spans {
		s := &t.spans[i]
		s.Self = s.End - s.Start - covered(children[s.ID])
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// covered returns the length of the union of the spans' intervals.
func covered(spans []span) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total, reach int64 = 0, -1 << 62
	for _, s := range spans {
		start := max(s.Start, reach)
		if s.End > start {
			total += s.End - start
		}
		reach = max(reach, s.End)
	}
	return total
}

// layerTally accumulates the per-layer figures of the traced phase.
type layerTally struct {
	victims   int
	layerNs   map[string]int64
	victimMs  []float64
	selfMs    []float64
	extractMs []float64
	extractNs int64
	attempts  int64
	faults    int64
	voteWidth float64
	extracted int
	forwards  int64
	ckptBytes int64
	probed    int
	// executions counts RunContext executions in the traced phase (the
	// server's and the benchmark's), for the timer cross-check.
	executions int64
}

// runTraced runs the workload untraced for half the time, then traced for
// the other half, and reports the per-layer metrics.
func runTraced(ctx context.Context, w workload, o options, stdout io.Writer) (*result, error) {
	tr := &tracer{t0: time.Now()}
	start := time.Now()
	e, err := setup(ctx, w, o)
	if err != nil {
		return nil, err
	}
	defer e.close()
	setupSpan := tr.record("setup", 0, 0, start, time.Now())
	at := start
	for _, p := range []struct {
		name string
		s    float64
	}{{"zoo.build", e.times.build}, {"zoo.open", e.times.open}, {"core.prepare", e.times.prepare}} {
		end := at.Add(time.Duration(p.s * 1e9))
		tr.record(p.name, setupSpan, 0, at, end)
		at = end
	}

	r := newRunner(e, w, o)
	a, err := r.measure(ctx, o.seconds/2)
	if err != nil {
		return nil, err
	}
	reg := e.reg
	timers := []string{"core.phase.identify_seconds", "core.phase.extract_seconds", "core.phase.evaluate_seconds"}
	before := map[string]float64{}
	for _, n := range timers {
		before[n] = registryTimer(reg, n)
	}
	exec0 := reg.Counter("core.victims_attacked").Value()
	r.tr = tr
	r.lt = &layerTally{layerNs: map[string]int64{}}
	b, err := r.measure(ctx, o.seconds/2)
	if err != nil {
		return nil, err
	}
	lt := r.lt
	lt.executions = reg.Counter("core.victims_attacked").Value() - exec0

	// Cross-check each span total against the program's own timer for the
	// same boundary, per execution. RunContext's identify phase starts with
	// the victim's first Model() call, so it includes the store reload.
	perExec := func(timer string) float64 {
		return 1e3 * ratio(registryTimer(reg, timer)-before[timer], float64(lt.executions))
	}
	perReplay := func(names ...string) float64 {
		var ns int64
		for _, n := range names {
			ns += lt.layerNs[n]
		}
		return ratio(float64(ns)/1e6, float64(lt.victims))
	}
	fmt.Fprintf(stdout, "crosscheck %-28s spans %9.3f ms/victim  timer %9.3f ms/victim\n", "core.phase.identify_seconds",
		perReplay("zoo.reload", "gpusim.trace", "fingerprint.identify", "queryfp.detect", "sidechannel.archmap"), perExec(timers[0]))
	fmt.Fprintf(stdout, "crosscheck %-28s spans %9.3f ms/victim  timer %9.3f ms/victim\n", "core.phase.extract_seconds",
		perReplay("extract.run"), perExec(timers[1]))
	fmt.Fprintf(stdout, "crosscheck %-28s spans %9.3f ms/victim  timer %9.3f ms/victim\n", "core.phase.evaluate_seconds",
		perReplay("transformer.eval"), perExec(timers[2]))
	fmt.Fprintf(stdout, "crosscheck %-28s span core.prepare %7.3f s  timer %7.3f s (dataset timer %.3f s)\n", "fingerprint.train_seconds",
		e.times.prepare, registryTimer(reg, "fingerprint.train_seconds"), registryTimer(reg, "fingerprint.dataset_seconds"))
	fmt.Fprintf(stdout, "crosscheck %-28s spans zoo.build+zoo.open %7.3f s  timer %7.3f s\n", "zoo.store_open_seconds",
		e.times.build+e.times.open, registryTimer(reg, "zoo.store_open_seconds"))

	spans := filepath.Join(o.workdir, "spans", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	if err := tr.write(spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "e2ebench: %d spans written to %s\n", len(tr.spans), spans)

	n := float64(lt.victims)
	per := func(name string) float64 { return ratio(float64(lt.layerNs[name])/1e6, n) }
	campaigns := float64(a.ncampaigns)
	m := map[string]metric{
		"zoo.build_s":                         {e.times.build, "s"},
		"core.prepare_s":                      {e.times.prepare, "s"},
		"fingerprint.train_s":                 {registryTimer(reg, "fingerprint.train_seconds"), "s"},
		"zoo.reload_ms":                       {per("zoo.reload"), "ms"},
		"gpusim.trace_ms":                     {per("gpusim.trace"), "ms"},
		"fingerprint.identify_ms":             {per("fingerprint.identify"), "ms"},
		"queryfp.detect_ms":                   {per("queryfp.detect"), "ms"},
		"queryfp.probed_frac":                 {ratio(float64(lt.probed), n), "fraction"},
		"sidechannel.archmap_ms":              {per("sidechannel.archmap"), "ms"},
		"extract.run_ms_p50":                  {quantile(lt.extractMs, 0.5), "ms"},
		"extract.run_ms_p90":                  {quantile(lt.extractMs, 0.9), "ms"},
		"extract.ns_per_attempt":              {ratio(float64(lt.extractNs), float64(lt.attempts)), "ns"},
		"extract.vote_width":                  {ratio(lt.voteWidth, float64(lt.extracted)), "reads"},
		"sidechannel.fault_ratio":             {ratio(float64(lt.faults), float64(lt.attempts)), "fraction"},
		"extract.clone_forwards_per_victim":   {ratio(float64(lt.forwards), n), "forwards"},
		"extract.checkpoint_bytes_per_victim": {ratio(float64(lt.ckptBytes), n), "bytes"},
		"transformer.eval_ms":                 {per("transformer.eval"), "ms"},
		"core.victim_ms_p50":                  {quantile(lt.victimMs, 0.5), "ms"},
		"core.victim_ms_p90":                  {quantile(lt.victimMs, 0.9), "ms"},
		"core.self_ms":                        {mean(lt.selfMs), "ms"},
		"service.submit_ms":                   {median(a.submit), "ms"},
		"service.queue_wait_ms":               {median(a.queueWait), "ms"},
		"service.victim_gap_ms":               {median(a.gaps), "ms"},
		"service.ledger_events_per_victim":    {ratio(float64(a.ledgerEvents), float64(a.victims)), "events"},
		"service.write_bytes_per_victim":      {ratio(float64(a.writeBytes), float64(a.victims)), "bytes"},
		"service.open_fds_per_campaign":       {ratio(float64(a.fdGrowth), campaigns), "fds"},
		"service.heap_growth_kb_per_campaign": {ratio(a.heapGrowthKB, campaigns), "kB"},
		"bench.trace_overhead":                {ratio(b.victimsPerS(), a.victimsPerS()), "ratio"},
		"bench.traced_victims":                {n, "count"},
		"bench.ref_ms":                        {hostScale(append(a.ref, b.ref...)) * ms(refNominal), "ms"},
	}
	a.attempted += b.attempted
	a.failed += b.failed
	a.problems = append(a.problems, b.problems...)
	return a.result(m), nil
}

// traceCampaign attacks each victim of an in-process campaign through
// RunContext, with the measurement seed RunAllStream would give it, and
// replays it layer by layer.
func (r *runner) traceCampaign(ctx context.Context, t *tally, victims []*zoo.FineTuned, seed, faults uint64) error {
	opt, err := r.w.runOptions(faults)
	if err != nil {
		return err
	}
	for i, v := range victims {
		o := opt
		o.MeasureSeed = seed + uint64(i)*7919
		r.tracedVictim(ctx, t, v, o, "", nil)
	}
	return nil
}

// traceServiceCampaign attacks and replays each victim of a finished
// service campaign with the server's options, in fresh checkpoint
// directories, and checks both against the campaign's result lines.
func (r *runner) traceServiceCampaign(ctx context.Context, t *tally, batch []*zoo.FineTuned, seed uint64, lines []service.VictimResult) error {
	for i, v := range batch {
		dir := filepath.Join(r.e.dir, "replay", fmt.Sprint(r.replays))
		r.replays++
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		o := serviceOptions(filepath.Join(dir, "run"))
		o.MeasureSeed = seed + uint64(i)*7919
		var line *service.VictimResult
		if i < len(lines) {
			line = &lines[i]
		}
		r.tracedVictim(ctx, t, v, o, filepath.Join(dir, "replay.ckpt"), line)
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	return nil
}

// replayed is what a replay computed, for the fidelity check.
type replayed struct {
	identified    string
	archConfirmed bool
	extracted     bool
	phys          int64
	match         float64
}

// tracedVictim times RunContext for one victim, replays it, and fails the
// run if the replay disagrees with the report (or with the service's
// result line, when given). In-process victims are counted here; service
// victims were counted from their result lines.
func (r *runner) tracedVictim(ctx context.Context, t *tally, v *zoo.FineTuned, opt core.RunOptions, ckpt string, line *service.VictimResult) {
	tr := r.tr
	r.lt.victims++
	vid := r.lt.victims
	root := tr.begin("victim", 0, vid)
	sp := tr.begin("core.victim", root, vid)
	rep, err := r.e.atk.RunContext(ctx, v, opt)
	victimNs := tr.end(sp)
	if err != nil {
		t.fail("%s: RunContext: %v", v.Name, err)
		tr.end(root)
		return
	}
	if line == nil {
		r.checkReport(t, v, rep)
	}
	rp := tr.begin("replay", root, vid)
	out, layersNs, err := r.replay(ctx, v, opt, vid, rp, ckpt)
	tr.end(rp)
	tr.end(root)
	if err != nil {
		t.fail("%s: replay: %v", v.Name, err)
		return
	}
	r.lt.victimMs = append(r.lt.victimMs, float64(victimNs)/1e6)
	r.lt.selfMs = append(r.lt.selfMs, float64(victimNs-layersNs)/1e6)

	want := replayed{identified: rep.Identified, archConfirmed: rep.ArchConfirmed, match: rep.MatchRate}
	if rep.Extract != nil {
		want.extracted, want.phys = true, rep.Extract.PhysicalBitReads
	}
	if out != want {
		t.fail("%s: replay %+v differs from RunContext %+v", v.Name, out, want)
	}
	if line != nil {
		got := replayed{identified: line.Identified, archConfirmed: line.ArchConfirmed,
			extracted: line.CloneHash != "", phys: line.PhysicalReads, match: line.MatchRate}
		if out != got {
			t.fail("%s: replay %+v differs from service result %+v", v.Name, out, got)
		}
	}
}

// replay re-attacks one victim through each layer's exported call in the
// order core/stages.go runs them, with a span around each. It returns what
// it computed and the summed duration of its layer spans.
func (r *runner) replay(ctx context.Context, v *zoo.FineTuned, opt core.RunOptions, vid, parent int, ckpt string) (out replayed, layersNs int64, err error) {
	a := r.e.atk
	lt := r.lt
	timed := func(name string, fn func()) {
		id := r.tr.begin(name, parent, vid)
		fn()
		d := r.tr.end(id)
		lt.layerNs[name] += d
		layersNs += d
	}
	if opt.ReleaseModels {
		defer func() {
			v.Release()
			v.Pretrained.Release()
		}()
	}

	timed("zoo.reload", func() {
		v.Model()
		v.Pretrained.Model()
	})

	var trace *gpusim.Trace
	var power *gpusim.PowerTrace
	var ctrs *gpusim.CounterSet
	timed("gpusim.trace", func() {
		trace = v.Trace(gpusim.Options{MeasureSeed: opt.MeasureSeed, JitterMagnitude: 0.3})
		if r.w.identify == identifyFused {
			power = gpusim.PowerTraceOf(trace, sensorOptions(fingerprint.ModalityPower, v.Name, opt.MeasureSeed))
			ctrs = gpusim.CountersOf(trace, sensorOptions(fingerprint.ModalityCounters, v.Name, opt.MeasureSeed))
		}
	})

	timed("fingerprint.identify", func() {
		switch r.w.identify {
		case identifyFlat:
			out.identified = a.Classifier.PredictTopK(trace, 3)[0]
		case identifyHier:
			out.identified = a.Hier.PredictTopK(trace, 3)[0]
		case identifyFused:
			posts := [][]float64{
				a.Classifier.Posterior(trace),
				a.PowerClf.Posterior(fingerprint.PowerFeatures(power)),
				a.CounterClf.Posterior(fingerprint.CounterFeatures(ctrs)),
			}
			weights := make([]float64, len(posts))
			for i, m := range fingerprint.AllModalities() {
				weights[i] = 1
				if w, ok := a.FusionWeights[m]; ok {
					weights[i] = w
				}
			}
			out.identified = a.Classifier.Classes[fingerprint.ArgMax(fingerprint.FusePosteriors(posts, weights))]
		}
	})
	cand := a.Zoo.PretrainedByName(out.identified)
	if cand == nil {
		return out, layersNs, fmt.Errorf("identified unknown release %q", out.identified)
	}

	if amb := a.Zoo.AmbiguousWith(cand); len(amb) > 1 {
		lt.probed++
		timed("queryfp.detect", func() {
			cands := make([]*queryfp.Candidate, len(amb))
			for i, p := range amb {
				cands[i] = &queryfp.Candidate{Name: p.Name, Vocab: p.Vocab}
			}
			res := queryfp.Detect(cands, func(text string) []float32 {
				_, probs := v.ClassifyText(text)
				return probs
			}, 4)
			if res.Best != "" {
				out.identified = res.Best
			}
		})
	}
	pre := a.Zoo.PretrainedByName(out.identified)

	timed("sidechannel.archmap", func() {
		am := sidechannel.MapModel(v.Model())
		if inferred, err := sidechannel.InferArchitecture(am.Sizes()); err == nil {
			pm := pre.Model()
			out.archConfirmed = inferred.Layers == pm.Layers && inferred.Hidden == pm.Hidden && inferred.FFN == pm.FFN
		}
	})
	if pre.ArchName != v.Pretrained.ArchName {
		return out, layersNs, nil // the architecture gate: extraction never attempted
	}

	oracle := sidechannel.NewOracle(v.Model())
	oracle.SetObs(a.Obs)
	oracle.SetFaultPlan(opt.FaultPlan.ForVictim(v.Name))
	cfg := a.ExtractCfg
	if opt.ScheduledExtraction && !cfg.Schedule.Enabled {
		cfg.Schedule = extract.DefaultSchedulerConfig()
	}
	ex := &extract.Extractor{Pre: pre.Model(), Oracle: oracle, Cfg: cfg, Victim: v.Model().Predict, Obs: a.Obs, CheckpointPath: ckpt}
	forwards := a.Obs.Counter("extract.clone_forwards")
	f0, w0 := forwards.Value(), wchar()
	var clone *transformer.Model
	var st *extract.Stats
	var xerr error
	start := time.Now()
	timed("extract.run", func() {
		clone, st, xerr = ex.RunContext(ctx, v.Task.Labels, v.Dev)
	})
	xNs := time.Since(start).Nanoseconds()
	lt.ckptBytes += wchar() - w0
	lt.forwards += forwards.Value() - f0
	if xerr != nil {
		return out, layersNs, fmt.Errorf("extraction: %w", xerr)
	}
	out.extracted, out.phys = true, st.PhysicalBitReads
	lt.extracted++
	lt.extractMs = append(lt.extractMs, float64(xNs)/1e6)
	lt.extractNs += xNs
	lt.attempts += st.OracleAttempts()
	lt.faults += st.ReadFaults
	lt.voteWidth += st.MeanVoteWidth()

	timed("transformer.eval", func() {
		vm := v.Model()
		out.match = stats.MatchRate(vm.Predictions(v.Dev), clone.Predictions(v.Dev))
		vm.Evaluate(v.Dev)
		clone.Evaluate(v.Dev)
		vm.EvaluateF1(v.Dev)
		clone.EvaluateF1(v.Dev)
	})
	return out, layersNs, nil
}

// sensorOptions are the attack-time options of one derived sensor channel,
// seeded as core seeds them (per modality, victim and measurement seed).
func sensorOptions(m fingerprint.Modality, victim string, measureSeed uint64) gpusim.ChannelOptions {
	return gpusim.ChannelOptions{
		Seed:  rng.Seed("sensor", string(m), victim, fmt.Sprint(measureSeed)),
		Noise: fingerprint.DefaultChannelNoise(m),
	}
}
