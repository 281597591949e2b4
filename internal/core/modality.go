package core

import (
	"fmt"

	"decepticon/internal/fingerprint"
	"decepticon/internal/gpusim"
	"decepticon/internal/obs"
	"decepticon/internal/pipeline"
	"decepticon/internal/rng"
)

// This file is level-1 identification. Each measurement modality gets its
// own MeasureStage+IdentifyStage pair (traceSensor, powerSensor,
// counterSensor — all behind pipeline.TraceStage/IdentifyStage);
// multiMeasure and fusedIdentify compose the requested set into the
// engine's single Trace/Identify slots for every run: one victim
// inference feeds every passive sensor, and the per-modality posteriors
// pool into one identification that degrades gracefully — with logged,
// metered obs counters — when a sensor is jammed or absent. The paper's
// attack is the one-sensor case: a nil RunOptions.Modalities measures the
// kernel trace alone, and fusing one posterior keeps its argmax.

// sensorStage is one modality's stage pair plus the wiring the
// composites need: availability (is its classifier trained?) and the
// posterior it contributes to fusion.
type sensorStage interface {
	pipeline.TraceStage
	pipeline.IdentifyStage
	modality() fingerprint.Modality
	available() bool
	posterior() []float64
}

// channelSensorSeed derives a victim's attack-time sensor-noise seed for
// one modality — a pure function of (modality, victim, measure seed), so
// campaigns stay byte-identical for any worker count.
func channelSensorSeed(m fingerprint.Modality, victim string, measureSeed uint64) uint64 {
	return rng.Seed("sensor", string(m), victim, fmt.Sprint(measureSeed))
}

// traceSensor is the paper's channel as a stage pair: the kernel launch
// timeline measured through the contention side channel, identified by
// the two-level family→release hierarchy when the attack was prepared
// with one, else by the flat CNN.
type traceSensor struct {
	r    *attackRun
	post []float64
}

func (t *traceSensor) modality() fingerprint.Modality { return fingerprint.ModalityTrace }
func (t *traceSensor) available() bool                { return t.r.a.Hier != nil || t.r.a.Classifier != nil }
func (t *traceSensor) posterior() []float64           { return t.post }

// MeasureTrace is a no-op: the kernel timeline is the victim's simulated
// inference itself, which multiMeasure has already recorded.
func (t *traceSensor) MeasureTrace(s *pipeline.State) error { return nil }

// Identify computes the trace identifier's posterior over the measured
// timeline.
func (t *traceSensor) Identify(s *pipeline.State) error {
	if h := t.r.a.Hier; h != nil {
		t.post = h.Posterior(t.r.trace)
	} else {
		t.post = t.r.a.Classifier.Posterior(t.r.trace)
	}
	return nil
}

// powerSensor is the Energon-style channel: the board power/thermal
// trace derived from the same inference, identified by a dense
// classifier over its resampled profile.
type powerSensor struct {
	r    *attackRun
	post []float64
}

func (p *powerSensor) modality() fingerprint.Modality { return fingerprint.ModalityPower }
func (p *powerSensor) available() bool                { return p.r.a.PowerClf != nil }
func (p *powerSensor) posterior() []float64           { return p.post }

// MeasureTrace samples the power meter over the victim's inference.
func (p *powerSensor) MeasureTrace(s *pipeline.State) error {
	r := p.r
	r.power = gpusim.PowerTraceOf(r.trace, gpusim.ChannelOptions{
		Seed:  channelSensorSeed(fingerprint.ModalityPower, r.victim.Name, r.opt.MeasureSeed),
		Noise: fingerprint.DefaultChannelNoise(fingerprint.ModalityPower),
	})
	return nil
}

// Identify computes the power classifier's posterior.
func (p *powerSensor) Identify(s *pipeline.State) error {
	p.post = p.r.a.PowerClf.Posterior(fingerprint.PowerFeatures(p.r.power))
	return nil
}

// counterSensor is the InferNet-style channel: aggregate profiler
// counters from the same inference, identified by a dense classifier.
type counterSensor struct {
	r    *attackRun
	post []float64
}

func (c *counterSensor) modality() fingerprint.Modality { return fingerprint.ModalityCounters }
func (c *counterSensor) available() bool                { return c.r.a.CounterClf != nil }
func (c *counterSensor) posterior() []float64           { return c.post }

// MeasureTrace reads the profiler's aggregate counters for the inference.
func (c *counterSensor) MeasureTrace(s *pipeline.State) error {
	r := c.r
	r.counters = gpusim.CountersOf(r.trace, gpusim.ChannelOptions{
		Seed:  channelSensorSeed(fingerprint.ModalityCounters, r.victim.Name, r.opt.MeasureSeed),
		Noise: fingerprint.DefaultChannelNoise(fingerprint.ModalityCounters),
	})
	return nil
}

// Identify computes the counter classifier's posterior.
func (c *counterSensor) Identify(s *pipeline.State) error {
	c.post = c.r.a.CounterClf.Posterior(fingerprint.CounterFeatures(c.r.counters))
	return nil
}

// newSensor maps a modality to its stage pair.
func newSensor(m fingerprint.Modality, r *attackRun) sensorStage {
	switch m {
	case fingerprint.ModalityTrace:
		return &traceSensor{r: r}
	case fingerprint.ModalityPower:
		return &powerSensor{r: r}
	default:
		return &counterSensor{r: r}
	}
}

// multiMeasure is the level-1 measurement stage: it opens the identify
// phase (its spans close in Disambiguate — identification is one phase
// with three stages), simulates the victim's inference once (every
// sensor is passive — they all tap the same run, so the phase clock
// advances by the one kernel timeline regardless of how many sensors
// listen), then lets each surviving sensor record its channel. Jammed and
// absent sensors degrade the run instead of failing it: logged, counted
// on core.modality_jammed / core.modality_absent, and excluded from
// fusion.
type multiMeasure struct {
	r       *attackRun
	sensors []sensorStage
}

func (m *multiMeasure) MeasureTrace(s *pipeline.State) error {
	r := m.r
	r.prog.SetStage("measure")
	r.identifySpan = r.a.Obs.StartSpan("core.phase.identify_seconds")
	r.identifyStart = s.Clock.Now()
	r.identifyTrace = r.tk.Begin("identify")
	r.trace = r.victim.Trace(gpusim.Options{MeasureSeed: r.opt.MeasureSeed, JitterMagnitude: 0.3})
	// The simulated kernel timeline is the natural clock for this phase.
	d := int64(r.trace.Duration())
	r.tk.Advance(d)
	s.Clock.Advance(d)

	jammed := map[fingerprint.Modality]bool{}
	for _, j := range r.opt.Jammed {
		jammed[j] = true
	}
	degraded := false
	report := multiModal(r.opt)
	for _, sensor := range m.sensors {
		mod := sensor.modality()
		switch {
		case jammed[mod]:
			degraded = true
			r.rep.JammedModalities = append(r.rep.JammedModalities, string(mod))
			r.a.Obs.Counter("core.modality_jammed").Inc()
			r.tk.Instant("modality_jammed", obs.A("modality", string(mod)))
			r.log.Warn("sensor jammed, degrading to surviving modalities", "modality", string(mod))
		case !sensor.available():
			degraded = true
			r.a.Obs.Counter("core.modality_absent").Inc()
			r.tk.Instant("modality_absent", obs.A("modality", string(mod)))
			r.log.Warn("sensor has no trained classifier, degrading to surviving modalities",
				"modality", string(mod))
		default:
			if err := sensor.MeasureTrace(s); err != nil {
				return err
			}
			r.live = append(r.live, sensor)
			if report {
				r.rep.Modalities = append(r.rep.Modalities, string(mod))
			}
		}
	}
	if degraded {
		r.rep.IdentifyDegraded = true
		r.a.Obs.Counter("core.identify_degraded").Inc()
	}
	if len(r.live) == 0 {
		r.identifyTrace.End()
		r.identifySpan.End()
		return fmt.Errorf("core: every measurement modality is jammed or has no trained classifier")
	}
	return nil
}

// fusedIdentify is the level-1 identification stage: each live sensor's
// identifier runs, the posteriors pool by weighted log-linear fusion
// (Attack.FusionWeights, equal when unset), and the argmax becomes the
// identified candidate. A lone sensor's fused argmax is its own argmax:
// pooling one posterior at a positive weight is monotone, and ArgMax
// breaks ties toward the lowest index like PredictTopK. A trace-only run
// therefore identifies exactly as the trace identifier's top prediction.
// A candidate the zoo does not know is a real error (the identifiers and
// the candidate pool are out of sync), not a per-victim degradation.
type fusedIdentify struct {
	r *attackRun
}

func (f *fusedIdentify) Identify(s *pipeline.State) error {
	r := f.r
	r.prog.SetStage("identify")
	posts := make([][]float64, len(r.live))
	weights := make([]float64, len(r.live))
	for i, sensor := range r.live {
		if err := sensor.Identify(s); err != nil {
			return err
		}
		posts[i] = sensor.posterior()
		weights[i] = 1
		if w, ok := r.a.FusionWeights[sensor.modality()]; ok {
			weights[i] = w
		}
	}
	fused := fingerprint.FusePosteriors(posts, weights)
	classes := r.a.classes()
	r.identified = classes[fingerprint.ArgMax(fused)]
	if r.a.Zoo.PretrainedByName(r.identified) == nil {
		r.identifyTrace.End()
		r.identifySpan.End()
		return fmt.Errorf("core: identifier produced unknown candidate %q", r.identified)
	}
	return nil
}

// classes returns the class list shared by every trained identifier (all
// are built from the same zoo index, so any present one serves).
func (a *Attack) classes() []string {
	switch {
	case a.Classifier != nil:
		return a.Classifier.Classes
	case a.Hier != nil:
		return a.Hier.Classes
	case a.PowerClf != nil:
		return a.PowerClf.Classes
	case a.CounterClf != nil:
		return a.CounterClf.Classes
	}
	return nil
}

// normalizeModalities resolves a run's requested modality set: nil means
// the paper's kernel-trace channel alone.
func normalizeModalities(ms []fingerprint.Modality) []fingerprint.Modality {
	if len(ms) == 0 {
		return []fingerprint.Modality{fingerprint.ModalityTrace}
	}
	return ms
}

// multiModal reports whether the run asked for more than the paper's
// kernel trace: any other modality, or any jamming to honor. Only such
// runs list their contributing sensors on the report; the default
// trace-only run leaves Report.Modalities nil.
func multiModal(opt RunOptions) bool {
	mods := normalizeModalities(opt.Modalities)
	return len(mods) > 1 || mods[0] != fingerprint.ModalityTrace || len(opt.Jammed) > 0
}
