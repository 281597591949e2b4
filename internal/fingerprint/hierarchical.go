// Hierarchical identification: a family classifier (architecture level,
// InferNet-style coarse inference) gates per-family release classifiers.
// Identification cost stays sub-linear as the zoo grows: the family CNN
// sees a handful of classes no matter how many releases exist, and each
// release CNN only separates the releases inside one family. Training
// shards over internal/parallel per family — every per-family classifier
// is an independent work item with its own derived seed, so the result
// is identical for any worker count.
package fingerprint

import (
	"context"
	"fmt"
	"sort"

	"decepticon/internal/gpusim"
	"decepticon/internal/obs"
	"decepticon/internal/parallel"
	"decepticon/internal/rng"
	"decepticon/internal/stats"
	"decepticon/internal/tensor"
	"decepticon/internal/zoo"
)

// otherClass is the synthetic trailing class a release classifier trains
// with: every out-of-family sample lands there, so the classifier keeps
// the full corpus's feature diversity without widening its answer space.
// Predictions never return it.
const otherClass = "__other__"

// Hierarchical is the two-level identifier: Family picks the architecture
// family, then the family's release classifier (if the family holds more
// than one release) picks the pre-trained model.
type Hierarchical struct {
	ImgSize int
	// Classes is the flat release list (the training dataset's classes,
	// the flat classifier's answer space); Posterior aligns with it.
	Classes []string
	// Family classifies traces into architecture-family names
	// (zoo.Pretrained.ArchName), in first-appearance order.
	Family *Classifier
	// Release maps a family name to its release classifier. Families
	// with a single release are absent: the family decision already
	// identifies the release (Direct).
	Release map[string]*Classifier
	// Direct maps single-release family names straight to the release.
	Direct map[string]string
	// Workers / Obs mirror Classifier: runtime knobs, not model state.
	Workers int
	Obs     *obs.Registry
}

// familyOf maps every dataset class (pre-trained model name) to its
// architecture family via the zoo.
func familyOf(z *zoo.Zoo, classes []string) (map[string]string, []string, error) {
	byClass := make(map[string]string, len(classes))
	var families []string
	seen := map[string]bool{}
	for _, name := range classes {
		p := z.PretrainedByName(name)
		if p == nil {
			return nil, nil, fmt.Errorf("fingerprint: class %q not in zoo", name)
		}
		byClass[name] = p.ArchName
		if !seen[p.ArchName] {
			seen[p.ArchName] = true
			families = append(families, p.ArchName)
		}
	}
	return byClass, families, nil
}

// TrainHierarchical builds and trains the two-level identifier from the
// same labeled dataset a flat classifier trains on. Per-family release
// classifiers (and the family classifier itself) train concurrently on
// workers goroutines; each derives its seed from the family name, so the
// trained weights are worker-count invariant.
func TrainHierarchical(ctx context.Context, z *zoo.Zoo, d *Dataset, imgSize int, cfg TrainConfig, workers int, reg *obs.Registry) (*Hierarchical, error) {
	defer reg.StartSpan("fingerprint.hier_train_seconds").End()
	byClass, families, err := familyOf(z, d.Classes)
	if err != nil {
		return nil, err
	}
	famIdx := make(map[string]int, len(families))
	for i, f := range families {
		famIdx[f] = i
	}

	// Family dataset: every sample relabeled with its class's family.
	famData := &Dataset{Classes: families}
	famData.Samples = make([]Sample, len(d.Samples))
	for i, s := range d.Samples {
		famData.Samples[i] = Sample{
			Trace: s.Trace, FromModel: s.FromModel,
			Label: famIdx[byClass[d.Classes[s.Label]]],
		}
	}

	// Per-family release datasets, classes in global class order so the
	// hierarchy's answer space is exactly the flat classifier's.
	type famJob struct {
		name    string
		classes []string
		data    *Dataset
	}
	var jobs []famJob
	h := &Hierarchical{
		ImgSize: imgSize,
		Classes: d.Classes,
		Release: map[string]*Classifier{},
		Direct:  map[string]string{},
		Workers: workers,
		Obs:     reg,
	}
	for _, fam := range families {
		var classes []string
		for _, name := range d.Classes {
			if byClass[name] == fam {
				classes = append(classes, name)
			}
		}
		if len(classes) == 1 {
			h.Direct[fam] = classes[0]
			continue
		}
		local := make(map[string]int, len(classes))
		for i, name := range classes {
			local[name] = i
		}
		// The release classifier trains on the full corpus with every
		// out-of-family sample collapsed into a trailing "other" class.
		// Training only on the family's slice loses the feature
		// regularization that cross-family diversity provides, and
		// within-cluster accuracy measurably drops below the flat
		// classifier's; the "other" class restores it while the answer
		// space (argmax over family classes only) stays the family's.
		sub := &Dataset{Classes: append(append([]string(nil), classes...), otherClass)}
		other := len(classes)
		for _, s := range d.Samples {
			label, in := local[d.Classes[s.Label]]
			if !in {
				label = other
			}
			sub.Samples = append(sub.Samples, Sample{
				Trace: s.Trace, FromModel: s.FromModel, Label: label,
			})
		}
		jobs = append(jobs, famJob{name: fam, classes: classes, data: sub})
	}

	// Shard: job 0 is the family classifier, jobs 1..n the release
	// classifiers. Each trained CNN keeps Workers=1 while training (the
	// shard pool owns the parallelism) and inherits the caller's worker
	// budget afterwards for evaluation.
	trained, err := parallel.MapErrCtx(ctx, len(jobs)+1, workers, func(ctx context.Context, i int) (*Classifier, error) {
		if i == 0 {
			c := NewClassifier(imgSize, families, rng.Seed("hier", "family")^cfg.Seed)
			c.Workers, c.Obs = 1, reg
			c.TrainContext(ctx, famData, TrainConfig{Epochs: cfg.Epochs, LR: cfg.LR, Seed: rng.Seed("hier-train", "family") ^ cfg.Seed})
			return c, ctx.Err()
		}
		j := jobs[i-1]
		c := NewClassifier(imgSize, j.data.Classes, rng.Seed("hier", j.name)^cfg.Seed)
		c.Workers, c.Obs = 1, reg
		c.TrainContext(ctx, j.data, TrainConfig{Epochs: cfg.Epochs, LR: cfg.LR, Seed: rng.Seed("hier-train", j.name) ^ cfg.Seed})
		return c, ctx.Err()
	})
	if err != nil {
		return nil, fmt.Errorf("fingerprint: hierarchical training cancelled: %w", err)
	}
	h.Family = trained[0]
	h.Family.Workers = workers
	for i, j := range jobs {
		trained[i+1].Workers = workers
		h.Release[j.name] = trained[i+1]
	}
	reg.Log().Info("hierarchical identifier trained",
		"families", len(families), "release_classifiers", len(jobs),
		"classes", len(d.Classes))
	return h, nil
}

// scores returns a classifier's raw logits for a trace.
func (c *Classifier) scores(t *gpusim.Trace) []float32 {
	x := tensor.FromSlice(1, c.ImgSize*c.ImgSize, c.preprocess(t))
	return c.net.Forward(x, false).Row(0)
}

// releaseTopK ranks a release classifier's real classes (the trailing
// otherClass, when present, is never a candidate) by logit, best first.
func releaseTopK(rc *Classifier, t *gpusim.Trace, k int) []string {
	sc := rc.scores(t)
	n := len(rc.Classes)
	if n > 0 && rc.Classes[n-1] == otherClass {
		n--
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return sc[order[a]] > sc[order[b]] })
	if k > n {
		k = n
	}
	out := make([]string, 0, k)
	for _, i := range order[:k] {
		out = append(out, rc.Classes[i])
	}
	return out
}

// Predict returns the pre-trained model name for a trace: family first,
// then the release inside it.
func (h *Hierarchical) Predict(t *gpusim.Trace) string {
	fam := h.Family.Predict(t)
	if name, ok := h.Direct[fam]; ok {
		return name
	}
	return releaseTopK(h.Release[fam], t, 1)[0]
}

// PredictTopK ranks candidate releases family-first: families in
// descending family-classifier score, each family contributing its
// releases (ranked by its release classifier) before the next family.
// The flat classifier's contract — k distinct candidate names, most
// likely first — is preserved, which is what the Identify stage and the
// disambiguation probes consume.
func (h *Hierarchical) PredictTopK(t *gpusim.Trace, k int) []string {
	famScores := h.Family.scores(t)
	order := make([]int, len(famScores))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return famScores[order[a]] > famScores[order[b]] })

	var out []string
	for _, fi := range order {
		if len(out) >= k {
			break
		}
		fam := h.Family.Classes[fi]
		if name, ok := h.Direct[fam]; ok {
			out = append(out, name)
			continue
		}
		out = append(out, releaseTopK(h.Release[fam], t, k-len(out))...)
	}
	return out
}

// Posterior returns a probability vector over Classes that hard-gates on
// the top-scoring family: zero outside it, all mass on the release of a
// single-release family, else the family's release classifier's softmax
// over its real classes (otherClass excluded). Its argmax is exactly
// PredictTopK(t, 1)[0]: release classes keep their global order, and
// both sides break ties toward the lowest index. This is the hierarchy's
// entry into posterior fusion.
func (h *Hierarchical) Posterior(t *gpusim.Trace) []float64 {
	out := make([]float64, len(h.Classes))
	fam := h.Family.Classes[stats.TopK(h.Family.scores(t), 1)[0]]
	if name, ok := h.Direct[fam]; ok {
		out[indexOf(h.Classes, name)] = 1
		return out
	}
	rc := h.Release[fam]
	sc := rc.scores(t)
	if n := len(rc.Classes); n > 0 && rc.Classes[n-1] == otherClass {
		sc = sc[:n-1]
	}
	for i, p := range softmax64(sc) {
		out[indexOf(h.Classes, rc.Classes[i])] = p
	}
	return out
}

// indexOf returns the position of name in names (-1 when absent).
func indexOf(names []string, name string) int {
	for i, n := range names {
		if n == name {
			return i
		}
	}
	return -1
}

// Accuracy returns hierarchical top-1 accuracy over a dataset labeled
// with flat (release-level) classes.
func (h *Hierarchical) Accuracy(d *Dataset) float64 {
	acc, _ := h.AccuracyContext(context.Background(), d)
	return acc
}

// AccuracyContext is Accuracy with cooperative cancellation.
func (h *Hierarchical) AccuracyContext(ctx context.Context, d *Dataset) (float64, error) {
	defer h.Obs.StartSpan("fingerprint.eval_seconds").End()
	if len(d.Samples) == 0 {
		return 0, nil
	}
	hits, err := parallel.MapErrCtx(ctx, len(d.Samples), h.Workers, func(ctx context.Context, i int) (bool, error) {
		s := d.Samples[i]
		return h.Predict(s.Trace) == d.Classes[s.Label], nil
	})
	if err != nil {
		return 0, err
	}
	correct := 0
	for _, hit := range hits {
		if hit {
			correct++
		}
	}
	return float64(correct) / float64(len(d.Samples)), nil
}
