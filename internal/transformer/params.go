package transformer

import (
	"fmt"

	"decepticon/internal/tensor"
)

// NamedParam is a view of one parameter tensor with its provenance. Layer
// is -1 for embeddings, the block index for encoder parameters, and
// Config.Layers for the task-dependent last layer (the classification
// head), so "later layers first" extraction schedules can sort on it.
type NamedParam struct {
	Name   string
	Layer  int
	Value  *tensor.Matrix
	Grad   *tensor.Matrix
	IsHead bool // true for the task-dependent last layer
}

// Params returns every trainable tensor with stable names and layer
// indices. The order is deterministic: embeddings, blocks bottom-up, head.
func (m *Model) Params() []NamedParam {
	ps := []NamedParam{
		{Name: "tok_emb", Layer: -1, Value: m.TokEmb.V, Grad: m.TokEmb.G},
		{Name: "pos_emb", Layer: -1, Value: m.PosEmb.V, Grad: m.PosEmb.G},
	}
	for l, b := range m.Blocks {
		add := func(name string, p P) {
			ps = append(ps, NamedParam{
				Name:  fmt.Sprintf("block%d.%s", l, name),
				Layer: l, Value: p.V, Grad: p.G,
			})
		}
		add("wq", b.Wq)
		add("bq", b.Bq)
		add("wk", b.Wk)
		add("bk", b.Bk)
		add("wv", b.Wv)
		add("bv", b.Bv)
		add("wo", b.Wo)
		add("bo", b.Bo)
		add("ln1g", b.LN1G)
		add("ln1b", b.LN1B)
		add("w1", b.W1)
		add("b1", b.B1)
		add("w2", b.W2)
		add("b2", b.B2)
		add("ln2g", b.LN2G)
		add("ln2b", b.LN2B)
	}
	ps = append(ps,
		NamedParam{Name: "head_w", Layer: m.Layers, Value: m.HeadW.V, Grad: m.HeadW.G, IsHead: true},
		NamedParam{Name: "head_b", Layer: m.Layers, Value: m.HeadB.V, Grad: m.HeadB.G, IsHead: true},
	)
	return ps
}

// paramShape is one parameter tensor's name and shape.
type paramShape struct {
	name       string
	rows, cols int
}

// paramShapes lists the tensors of a model with configuration c — the
// names and shapes Params() returns, in its order — without allocating
// one.
func paramShapes(c Config) []paramShape {
	h, f := c.Hidden, c.FFN
	block := []paramShape{
		{"wq", h, h}, {"bq", 1, h}, {"wk", h, h}, {"bk", 1, h},
		{"wv", h, h}, {"bv", 1, h}, {"wo", h, h}, {"bo", 1, h},
		{"ln1g", 1, h}, {"ln1b", 1, h},
		{"w1", h, f}, {"b1", 1, f}, {"w2", f, h}, {"b2", 1, h},
		{"ln2g", 1, h}, {"ln2b", 1, h},
	}
	ps := make([]paramShape, 0, 4+len(block)*c.Layers)
	ps = append(ps, paramShape{"tok_emb", c.Vocab, h}, paramShape{"pos_emb", c.MaxSeq, h})
	for l := 0; l < c.Layers; l++ {
		for _, s := range block {
			ps = append(ps, paramShape{fmt.Sprintf("block%d.%s", l, s.name), s.rows, s.cols})
		}
	}
	return append(ps, paramShape{"head_w", h, c.Labels}, paramShape{"head_b", 1, c.Labels})
}

// ParamCount returns the total number of scalar weights in the model.
func (m *Model) ParamCount() int {
	n := 0
	for _, p := range m.Params() {
		n += len(p.Value.Data)
	}
	return n
}

// HeadParamCount returns the number of scalar weights in the task-specific
// last layer (Fig 16 right: its fraction of the total).
func (m *Model) HeadParamCount() int {
	return len(m.HeadW.V.Data) + len(m.HeadB.V.Data)
}

// Clone returns a deep copy of m (weights, head-pruning masks; gradients
// are zeroed).
func (m *Model) Clone() *Model {
	c := New(m.Config, 0)
	src := m.Params()
	dst := c.Params()
	for i := range src {
		dst[i].Value.CopyFrom(src[i].Value)
		dst[i].Grad.Zero()
	}
	for l, b := range m.Blocks {
		copy(c.Blocks[l].HeadPruned, b.HeadPruned)
	}
	return c
}

// CopyBlockFrom overwrites block l's weights with those of src's block l —
// the Table 1 "freeze first k layers to the pre-trained weights" operation.
func (m *Model) CopyBlockFrom(src *Model, l int) {
	if m.Hidden != src.Hidden || m.FFN != src.FFN {
		panic("transformer: CopyBlockFrom architecture mismatch")
	}
	d, s := m.Blocks[l], src.Blocks[l]
	pairs := [][2]P{
		{d.Wq, s.Wq}, {d.Bq, s.Bq}, {d.Wk, s.Wk}, {d.Bk, s.Bk},
		{d.Wv, s.Wv}, {d.Bv, s.Bv}, {d.Wo, s.Wo}, {d.Bo, s.Bo},
		{d.LN1G, s.LN1G}, {d.LN1B, s.LN1B},
		{d.W1, s.W1}, {d.B1, s.B1}, {d.W2, s.W2}, {d.B2, s.B2},
		{d.LN2G, s.LN2G}, {d.LN2B, s.LN2B},
	}
	for _, pr := range pairs {
		pr[0].V.CopyFrom(pr[1].V)
	}
}

// CopyEmbeddingsFrom overwrites m's embeddings with src's.
func (m *Model) CopyEmbeddingsFrom(src *Model) {
	m.TokEmb.V.CopyFrom(src.TokEmb.V)
	m.PosEmb.V.CopyFrom(src.PosEmb.V)
}

// ZeroGrads clears all accumulated gradients.
func (m *Model) ZeroGrads() {
	for _, p := range m.Params() {
		p.Grad.Zero()
	}
}

// SharedParams returns the (a, b) pairs of equally-shaped non-head
// parameters of two models with the same backbone architecture — the
// population compared in the paper's weight-gap characterization
// (Figs 3-5). The head is excluded because fine-tuning replaces it.
func SharedParams(a, b *Model) [][2]NamedParam {
	pa, pb := a.Params(), b.Params()
	var out [][2]NamedParam
	for i := range pa {
		if i >= len(pb) {
			break
		}
		if pa[i].IsHead || pb[i].IsHead {
			continue
		}
		if pa[i].Value.Rows != pb[i].Value.Rows || pa[i].Value.Cols != pb[i].Value.Cols {
			continue
		}
		out = append(out, [2]NamedParam{pa[i], pb[i]})
	}
	return out
}

// WeightGaps returns the element-wise differences (b - a) across all
// shared non-head parameters, flattened. This feeds the Fig 3 histograms.
func WeightGaps(a, b *Model) []float64 {
	var out []float64
	for _, pr := range SharedParams(a, b) {
		va, vb := pr[0].Value, pr[1].Value
		for i := range va.Data {
			out = append(out, float64(vb.Data[i]-va.Data[i]))
		}
	}
	return out
}

// LayerMeanAbsDiff returns, per encoder block, the mean |Δw| between two
// same-architecture models, plus the head diff as the last element when
// both heads have equal shape (Fig 5's per-layer profile).
func LayerMeanAbsDiff(a, b *Model) []float64 {
	sums := make([]float64, a.Layers)
	counts := make([]float64, a.Layers)
	for _, pr := range SharedParams(a, b) {
		l := pr[0].Layer
		if l < 0 {
			continue
		}
		va, vb := pr[0].Value, pr[1].Value
		for i := range va.Data {
			d := float64(vb.Data[i] - va.Data[i])
			if d < 0 {
				d = -d
			}
			sums[l] += d
			counts[l]++
		}
	}
	out := make([]float64, 0, a.Layers+1)
	for l := range sums {
		if counts[l] > 0 {
			out = append(out, sums[l]/counts[l])
		} else {
			out = append(out, 0)
		}
	}
	if a.Labels == b.Labels {
		out = append(out, tensor.MeanAbsDiff(a.HeadW.V, b.HeadW.V))
	}
	return out
}

// SignKeepRate returns the fraction of shared weights whose sign is equal
// in both models — the paper's "an average of 99% weights keep their sign
// when fine-tuned" observation (§6.1.1).
func SignKeepRate(a, b *Model) float64 {
	var kept, total float64
	for _, pr := range SharedParams(a, b) {
		va, vb := pr[0].Value, pr[1].Value
		for i := range va.Data {
			total++
			if (va.Data[i] >= 0) == (vb.Data[i] >= 0) {
				kept++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return kept / total
}
