package transformer

import (
	"fmt"
	"math"

	"decepticon/internal/rng"
	"decepticon/internal/stats"
	"decepticon/internal/tensor"
)

// P is a trainable parameter tensor paired with its gradient accumulator.
type P struct {
	V *tensor.Matrix // value
	G *tensor.Matrix // gradient (same shape)
}

// Init describes a weight initialization distribution. The default is
// BERT's dense Gaussian. TrainedInit draws a large fraction of weights
// from a near-zero component, mimicking the heavy-tailed, magnitude-
// prunable weight distributions of genuinely pre-trained transformers —
// the property behind the paper's Fig 16 result that ~90% of weights can
// be excluded from side-channel checking (see DESIGN.md §4).
type Init struct {
	Std        float64 // std of the dense component
	SparseFrac float64 // fraction of weights drawn from the near-zero component
	SparseStd  float64 // std of the near-zero component
}

// DefaultInit is BERT's initializer: N(0, 0.02).
var DefaultInit = Init{Std: 0.02}

// TrainedInit mimics a converged pre-trained transformer's weight
// distribution: most weights near zero, a heavy tail of larger ones.
var TrainedInit = Init{Std: 0.05, SparseFrac: 0.72, SparseStd: 0.0004}

func (in Init) sample(r *rng.RNG) float32 {
	if in.SparseFrac > 0 && r.Float64() < in.SparseFrac {
		return r.Normal(0, in.SparseStd)
	}
	return r.Normal(0, in.Std)
}

func newPInit(rows, cols int, in Init, r *rng.RNG) P {
	v := tensor.New(rows, cols)
	if r != nil && in.Std != 0 {
		for i := range v.Data {
			v.Data[i] = in.sample(r)
		}
	}
	return P{V: v, G: tensor.New(rows, cols)}
}

func onesP(rows, cols int) P {
	p := P{V: tensor.New(rows, cols), G: tensor.New(rows, cols)}
	for i := range p.V.Data {
		p.V.Data[i] = 1
	}
	return p
}

// Block is one encoder layer: multi-head self-attention followed by a GELU
// feed-forward network, each with a residual connection and post-layer-norm.
type Block struct {
	Wq, Wk, Wv, Wo P // Hidden×Hidden
	Bq, Bk, Bv, Bo P // 1×Hidden
	LN1G, LN1B     P // 1×Hidden
	W1, B1         P // Hidden×FFN, 1×FFN
	W2, B2         P // FFN×Hidden, 1×Hidden
	LN2G, LN2B     P // 1×Hidden

	// HeadPruned marks attention heads removed by the head-pruning
	// optimization (paper §8); pruned heads contribute nothing to the
	// attention output.
	HeadPruned []bool

	// train holds the block's intermediates from the last training
	// forward, which backward and the head-confidence metrics read, and
	// grad the backward pass's own. Both are allocated by the first
	// training forward and reused by every later one.
	train *blockBuf
	grad  *gradBuf
}

// blockBuf holds every intermediate of one Block.forward. Each matrix
// owns storage for MaxSeq rows and is viewed at the call's sequence
// length, so a forward allocates nothing.
type blockBuf struct {
	x                *tensor.Matrix  // the block input (read by backward)
	q, k, v          tensor.Matrix   // S×Hidden projections
	qh, kh, vh, ctxH tensor.Matrix   // S×headDim, one head at a time
	probs            []tensor.Matrix // per head S×S attention weights
	ctx              tensor.Matrix   // S×Hidden concatenated head outputs
	res              tensor.Matrix   // S×Hidden residual sum, before each layer norm
	ln1Out, out      tensor.Matrix   // S×Hidden layer-norm outputs
	h1, act          tensor.Matrix   // S×FFN pre-/post-GELU
	ln1, ln2         lnCache
}

// slab hands out consecutive pieces of one allocation.
type slab []float32

func (s *slab) take(n int) []float32 {
	v := (*s)[:n:n]
	*s = (*s)[n:]
	return v
}

func (s *slab) matrix(rows, cols int) tensor.Matrix {
	return tensor.Matrix{Rows: rows, Cols: cols, Data: s.take(rows * cols)}
}

// blockBufFloats is the storage one blockBuf needs at cfg's MaxSeq.
func blockBufFloats(cfg Config) int {
	s, h := cfg.MaxSeq, cfg.Hidden
	return 9*s*h + 4*s*cfg.HeadDim() + cfg.Heads*s*s + 2*s*cfg.FFN + 2*s
}

func makeBlockBuf(cfg Config, mem *slab) blockBuf {
	s, h, hd := cfg.MaxSeq, cfg.Hidden, cfg.HeadDim()
	f := blockBuf{
		q: mem.matrix(s, h), k: mem.matrix(s, h), v: mem.matrix(s, h),
		qh: mem.matrix(s, hd), kh: mem.matrix(s, hd), vh: mem.matrix(s, hd), ctxH: mem.matrix(s, hd),
		probs: make([]tensor.Matrix, cfg.Heads),
		ctx:   mem.matrix(s, h), res: mem.matrix(s, h),
		ln1Out: mem.matrix(s, h), out: mem.matrix(s, h),
		h1: mem.matrix(s, cfg.FFN), act: mem.matrix(s, cfg.FFN),
		ln1: lnCache{xhat: mem.matrix(s, h), invStd: mem.take(s)},
		ln2: lnCache{xhat: mem.matrix(s, h), invStd: mem.take(s)},
	}
	for i := range f.probs {
		f.probs[i] = mem.matrix(s, s)
	}
	return f
}

// resize views every buffer at seq rows.
func (f *blockBuf) resize(seq int) {
	for _, m := range []*tensor.Matrix{&f.q, &f.k, &f.v, &f.qh, &f.kh, &f.vh, &f.ctxH,
		&f.ctx, &f.res, &f.ln1Out, &f.out, &f.h1, &f.act, &f.ln1.xhat, &f.ln2.xhat} {
		m.Resize(seq, m.Cols)
	}
	for i := range f.probs {
		f.probs[i].Resize(seq, seq)
	}
	f.ln1.invStd = f.ln1.invStd[:seq]
	f.ln2.invStd = f.ln2.invStd[:seq]
}

// gradBuf holds every intermediate of one Block.backward, sized and
// viewed like blockBuf.
type gradBuf struct {
	dRes, dLn1, dCtx, dQ, dK, dV, dx tensor.Matrix // S×Hidden
	dAct, dH1                        tensor.Matrix // S×FFN
	dProbs                           tensor.Matrix // S×S, one head at a time
	dQh, dKh, dVh                    tensor.Matrix // S×headDim
	dW                               tensor.Matrix // one weight gradient's product
	dB, dxhat                        []float32     // one bias gradient's sum; one layer-norm row
}

// gradBufFloats is the storage one gradBuf needs at cfg's MaxSeq.
func gradBufFloats(cfg Config) int {
	s, h, wide := cfg.MaxSeq, cfg.Hidden, max(cfg.Hidden, cfg.FFN)
	return 7*s*h + 2*s*cfg.FFN + s*s + 3*s*cfg.HeadDim() + h*wide + wide + h
}

func makeGradBuf(cfg Config, mem *slab) *gradBuf {
	s, h, hd, wide := cfg.MaxSeq, cfg.Hidden, cfg.HeadDim(), max(cfg.Hidden, cfg.FFN)
	return &gradBuf{
		dRes: mem.matrix(s, h), dLn1: mem.matrix(s, h), dCtx: mem.matrix(s, h),
		dQ: mem.matrix(s, h), dK: mem.matrix(s, h), dV: mem.matrix(s, h), dx: mem.matrix(s, h),
		dAct: mem.matrix(s, cfg.FFN), dH1: mem.matrix(s, cfg.FFN),
		dProbs: mem.matrix(s, s),
		dQh:    mem.matrix(s, hd), dKh: mem.matrix(s, hd), dVh: mem.matrix(s, hd),
		dW: mem.matrix(h, wide),
		dB: mem.take(wide), dxhat: mem.take(h),
	}
}

// resize views every sequence-shaped buffer at seq rows.
func (d *gradBuf) resize(seq int) {
	for _, m := range []*tensor.Matrix{&d.dRes, &d.dLn1, &d.dCtx, &d.dQ, &d.dK, &d.dV, &d.dx,
		&d.dAct, &d.dH1, &d.dQh, &d.dKh, &d.dVh} {
		m.Resize(seq, m.Cols)
	}
	d.dProbs.Resize(seq, seq)
}

// pass is one inference forward's working memory: a blockBuf that every
// block shares — each block reads its predecessor's output in place from
// out, and the embedding is written there first — plus the head's pooled
// input and logits. Inference writes only a pass, never the model, so one
// model serves concurrent predictions.
type pass struct {
	blockBuf
	pooled, logits []float32
}

func (m *Model) newPass() *pass {
	mem := make(slab, blockBufFloats(m.Config)+m.Hidden+m.Labels)
	return &pass{
		blockBuf: makeBlockBuf(m.Config, &mem),
		pooled:   mem.take(m.Hidden),
		logits:   mem.take(m.Labels),
	}
}

// Model is a full transformer with a classification head.
type Model struct {
	Config
	TokEmb P // Vocab×Hidden
	PosEmb P // MaxSeq×Hidden
	Blocks []*Block
	HeadW  P // Hidden×Labels: the task-dependent last layer
	HeadB  P // 1×Labels
}

// New returns a model initialized with DefaultInit (BERT's N(0, 0.02)).
func New(cfg Config, seed uint64) *Model {
	return NewWithInit(cfg, seed, DefaultInit)
}

// NewWithInit returns a randomly initialized model with the given weight
// distribution.
func NewWithInit(cfg Config, seed uint64, init Init) *Model {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	r := rng.New(seed)
	none := Init{}
	// Embedding tables are dense regardless of the block-weight
	// distribution: real transformer embeddings are not magnitude-sparse,
	// and distinct tokens must be distinguishable from the start.
	embInit := Init{Std: init.Std}
	m := &Model{
		Config: cfg,
		TokEmb: newPInit(cfg.Vocab, cfg.Hidden, embInit, r.Derive("tok")),
		PosEmb: newPInit(cfg.MaxSeq, cfg.Hidden, embInit, r.Derive("pos")),
		HeadW:  newPInit(cfg.Hidden, cfg.Labels, init, r.Derive("head")),
		HeadB:  newPInit(1, cfg.Labels, none, nil),
	}
	for l := 0; l < cfg.Layers; l++ {
		br := r.Derive(fmt.Sprintf("block%d", l))
		b := &Block{
			Wq:         newPInit(cfg.Hidden, cfg.Hidden, init, br.Derive("wq")),
			Wk:         newPInit(cfg.Hidden, cfg.Hidden, init, br.Derive("wk")),
			Wv:         newPInit(cfg.Hidden, cfg.Hidden, init, br.Derive("wv")),
			Wo:         newPInit(cfg.Hidden, cfg.Hidden, init, br.Derive("wo")),
			Bq:         newPInit(1, cfg.Hidden, none, nil),
			Bk:         newPInit(1, cfg.Hidden, none, nil),
			Bv:         newPInit(1, cfg.Hidden, none, nil),
			Bo:         newPInit(1, cfg.Hidden, none, nil),
			LN1G:       onesP(1, cfg.Hidden),
			LN1B:       newPInit(1, cfg.Hidden, none, nil),
			W1:         newPInit(cfg.Hidden, cfg.FFN, init, br.Derive("w1")),
			B1:         newPInit(1, cfg.FFN, none, nil),
			W2:         newPInit(cfg.FFN, cfg.Hidden, init, br.Derive("w2")),
			B2:         newPInit(1, cfg.Hidden, none, nil),
			LN2G:       onesP(1, cfg.Hidden),
			LN2B:       newPInit(1, cfg.Hidden, none, nil),
			HeadPruned: make([]bool, cfg.Heads),
		}
		m.Blocks = append(m.Blocks, b)
	}
	return m
}

// ---- layer norm ----

type lnCache struct {
	xhat   tensor.Matrix
	invStd []float32
}

const lnEps = 1e-5

// layerNormForward writes the layer norm of x into out, keeping the
// normalized input and inverse deviations in c for the backward pass.
func layerNormForward(out, x *tensor.Matrix, g, b []float32, c *lnCache) {
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		var mean float32
		for _, v := range row {
			mean += v
		}
		mean /= float32(len(row))
		var variance float32
		for _, v := range row {
			d := v - mean
			variance += d * d
		}
		variance /= float32(len(row))
		inv := 1 / float32(math.Sqrt(float64(variance)+lnEps))
		c.invStd[i] = inv
		xh := c.xhat.Row(i)
		orow := out.Row(i)
		for j, v := range row {
			xh[j] = (v - mean) * inv
			orow[j] = xh[j]*g[j] + b[j]
		}
	}
}

// layerNormBackward consumes dOut, writes dX into dx and returns it,
// accumulating dG and dB; dxhat is one row of scratch.
func layerNormBackward(dx, dOut *tensor.Matrix, cache lnCache, g, dG, dB, dxhat []float32) *tensor.Matrix {
	n := float32(dOut.Cols)
	for i := 0; i < dOut.Rows; i++ {
		dy := dOut.Row(i)
		xh := cache.xhat.Row(i)
		inv := cache.invStd[i]
		var sumDxhat, sumDxhatXhat float32
		for j := range dy {
			dG[j] += dy[j] * xh[j]
			dB[j] += dy[j]
			dxhat[j] = dy[j] * g[j]
			sumDxhat += dxhat[j]
			sumDxhatXhat += dxhat[j] * xh[j]
		}
		drow := dx.Row(i)
		for j := range dy {
			drow[j] = inv * (dxhat[j] - sumDxhat/n - xh[j]*sumDxhatXhat/n)
		}
	}
	return dx
}

// ---- block forward / backward ----

// headSlice copies head h's columns of m (S×Hidden) into dst (S×headDim)
// and returns dst.
func headSlice(dst, m *tensor.Matrix, h, headDim int) *tensor.Matrix {
	for i := 0; i < m.Rows; i++ {
		copy(dst.Row(i), m.Row(i)[h*headDim:(h+1)*headDim])
	}
	return dst
}

// addHeadSlice adds src (S×headDim) into head h's columns of dst.
func addHeadSlice(dst, src *tensor.Matrix, h, headDim int) {
	for i := 0; i < dst.Rows; i++ {
		d := dst.Row(i)[h*headDim : (h+1)*headDim]
		s := src.Row(i)
		for j := range d {
			d[j] += s[j]
		}
	}
}

// causalMaskValue is added to masked (future) attention scores; after the
// softmax those positions carry effectively zero weight.
const causalMaskValue = -1e9

// forward runs the block on x, writing every intermediate into f, and
// returns the output, which lives in f.out. x may be f.out itself: it is
// last read by the first residual sum, before the final layer norm
// overwrites f.out.
func (b *Block) forward(x *tensor.Matrix, f *blockBuf, heads, headDim int, causal bool) *tensor.Matrix {
	f.resize(x.Rows)
	f.x = x
	tensor.MatMulInto(&f.q, x, b.Wq.V).AddRowVector(b.Bq.V.Data)
	tensor.MatMulInto(&f.k, x, b.Wk.V).AddRowVector(b.Bk.V.Data)
	tensor.MatMulInto(&f.v, x, b.Wv.V).AddRowVector(b.Bv.V.Data)

	scale := float32(1 / math.Sqrt(float64(headDim)))
	f.ctx.Zero()
	for h := 0; h < heads; h++ {
		if b.HeadPruned[h] {
			continue
		}
		qh := headSlice(&f.qh, &f.q, h, headDim)
		kh := headSlice(&f.kh, &f.k, h, headDim)
		vh := headSlice(&f.vh, &f.v, h, headDim)
		// Scores are scaled, masked and normalized in place.
		probs := tensor.MatMulNTInto(&f.probs[h], qh, kh).Scale(scale)
		if causal {
			for i := 0; i < probs.Rows; i++ {
				row := probs.Row(i)
				for j := i + 1; j < len(row); j++ {
					row[j] += causalMaskValue
				}
			}
		}
		tensor.SoftmaxRowsInto(probs, probs)
		addHeadSlice(&f.ctx, tensor.MatMulInto(&f.ctxH, probs, vh), h, headDim)
	}

	attnOut := tensor.MatMulInto(&f.res, &f.ctx, b.Wo.V)
	attnOut.AddRowVector(b.Bo.V.Data)
	res1 := tensor.AddInto(&f.res, x, attnOut)
	layerNormForward(&f.ln1Out, res1, b.LN1G.V.Data, b.LN1B.V.Data, &f.ln1)

	tensor.MatMulInto(&f.h1, &f.ln1Out, b.W1.V).AddRowVector(b.B1.V.Data)
	tensor.GELUInto(&f.act, &f.h1)
	ffnOut := tensor.MatMulInto(&f.res, &f.act, b.W2.V)
	ffnOut.AddRowVector(b.B2.V.Data)
	res2 := tensor.AddInto(&f.res, &f.ln1Out, ffnOut)
	layerNormForward(&f.out, res2, b.LN2G.V.Data, b.LN2B.V.Data, &f.ln2)
	return &f.out
}

// accumBias adds grad's column sums, formed in sum, into p's gradient.
func accumBias(p P, grad *tensor.Matrix, sum []float32) {
	s := grad.SumRowsInto(sum[:grad.Cols])
	for i := range s {
		p.G.Data[i] += s[i]
	}
}

// accumWeight adds aᵀ × b, formed in prod, into p's gradient.
func accumWeight(p P, a, b, prod *tensor.Matrix) {
	prod.Resize(a.Cols, b.Cols)
	tensor.AddInPlace(p.G, tensor.MatMulTNInto(prod, a, b))
}

// backward reads the intermediates of the block's last training forward
// and writes its own into b.grad; the forward's per-head scratch
// matrices are free again and hold the head slices. The returned dX
// lives in b.grad.
func (b *Block) backward(dOut *tensor.Matrix, heads, headDim int) *tensor.Matrix {
	c, d := b.train, b.grad
	d.resize(dOut.Rows)
	// LN2 -> residual(ln1Out, ffnOut)
	dRes2 := layerNormBackward(&d.dRes, dOut, c.ln2, b.LN2G.V.Data, b.LN2G.G.Data, b.LN2B.G.Data, d.dxhat)
	// ffnOut = act W2 + b2
	accumBias(b.B2, dRes2, d.dB)
	accumWeight(b.W2, &c.act, dRes2, &d.dW)
	dAct := tensor.MatMulNTInto(&d.dAct, dRes2, b.W2.V)
	dH1 := tensor.HadamardInto(&d.dH1, dAct, tensor.GELUGradInto(&d.dH1, &c.h1))
	accumBias(b.B1, dH1, d.dB)
	accumWeight(b.W1, &c.ln1Out, dH1, &d.dW)
	dLn1 := tensor.MatMulNTInto(&d.dLn1, dH1, b.W1.V)
	tensor.AddInPlace(dLn1, dRes2) // residual path

	// dRes2 is dead: dRes1 takes its buffer.
	dRes1 := layerNormBackward(&d.dRes, dLn1, c.ln1, b.LN1G.V.Data, b.LN1G.G.Data, b.LN1B.G.Data, d.dxhat)
	// attnOut = ctx Wo + bo
	accumBias(b.Bo, dRes1, d.dB)
	accumWeight(b.Wo, &c.ctx, dRes1, &d.dW)
	dCtx := tensor.MatMulNTInto(&d.dCtx, dRes1, b.Wo.V)

	scale := float32(1 / math.Sqrt(float64(headDim)))
	dQ, dK, dV := &d.dQ, &d.dK, &d.dV
	dQ.Zero()
	dK.Zero()
	dV.Zero()
	for h := 0; h < heads; h++ {
		if b.HeadPruned[h] {
			continue
		}
		probs := &c.probs[h]
		kh := headSlice(&c.kh, &c.k, h, headDim)
		vh := headSlice(&c.vh, &c.v, h, headDim)
		qh := headSlice(&c.qh, &c.q, h, headDim)
		dCtxH := headSlice(&c.ctxH, dCtx, h, headDim)

		dProbs := tensor.MatMulNTInto(&d.dProbs, dCtxH, vh)
		dVh := tensor.MatMulTNInto(&d.dVh, probs, dCtxH)
		// softmax backward per row, in place: dS = P ⊙ (dP - rowSum(dP⊙P))
		dScores := dProbs
		for i := 0; i < probs.Rows; i++ {
			p := probs.Row(i)
			dp := dProbs.Row(i)
			var dot float32
			for j := range p {
				dot += dp[j] * p[j]
			}
			for j := range p {
				dp[j] = p[j] * (dp[j] - dot)
			}
		}
		dScores.Scale(scale)
		dQh := tensor.MatMulInto(&d.dQh, dScores, kh)
		dKh := tensor.MatMulTNInto(&d.dKh, dScores, qh)
		addHeadSlice(dQ, dQh, h, headDim)
		addHeadSlice(dK, dKh, h, headDim)
		addHeadSlice(dV, dVh, h, headDim)
	}

	accumBias(b.Bq, dQ, d.dB)
	accumBias(b.Bk, dK, d.dB)
	accumBias(b.Bv, dV, d.dB)
	accumWeight(b.Wq, c.x, dQ, &d.dW)
	accumWeight(b.Wk, c.x, dK, &d.dW)
	accumWeight(b.Wv, c.x, dV, &d.dW)

	// dCtx is dead: it holds the K and V terms of dX in turn.
	dx := tensor.MatMulNTInto(&d.dx, dQ, b.Wq.V)
	tensor.AddInPlace(dx, tensor.MatMulNTInto(dCtx, dK, b.Wk.V))
	tensor.AddInPlace(dx, tensor.MatMulNTInto(dCtx, dV, b.Wv.V))
	tensor.AddInPlace(dx, dRes1) // residual path
	return dx
}

// ---- model forward / backward ----

// embed writes the token+position embedding matrix for tokens into x,
// viewed at len(tokens) rows, and returns x.
func (m *Model) embed(x *tensor.Matrix, tokens []int) *tensor.Matrix {
	if len(tokens) == 0 || len(tokens) > m.MaxSeq {
		panic(fmt.Sprintf("transformer: sequence length %d out of (0,%d]", len(tokens), m.MaxSeq))
	}
	x.Resize(len(tokens), m.Hidden)
	for i, tok := range tokens {
		if tok < 0 || tok >= m.Vocab {
			panic(fmt.Sprintf("transformer: token %d out of vocab %d", tok, m.Vocab))
		}
		row := x.Row(i)
		te := m.TokEmb.V.Row(tok)
		pe := m.PosEmb.V.Row(i)
		for j := range row {
			row[j] = te[j] + pe[j]
		}
	}
	return x
}

// pool writes the mean over sequence positions of the final block output
// into pooled — the classifier's sentence representation — and returns it.
func (m *Model) pool(pooled []float32, acts *tensor.Matrix) []float32 {
	clear(pooled)
	inv := 1 / float32(acts.Rows)
	for i := 0; i < acts.Rows; i++ {
		row := acts.Row(i)
		for j := range pooled {
			pooled[j] += row[j] * inv
		}
	}
	return pooled
}

// headLogits writes the classification head's output into logits and
// returns it.
func (m *Model) headLogits(logits, pooled []float32) []float32 {
	for j := 0; j < m.Labels; j++ {
		s := m.HeadB.V.Data[j]
		for i, v := range pooled {
			s += v * m.HeadW.V.At(i, j)
		}
		logits[j] = s
	}
	return logits
}

// infer runs tokens through every block on p and returns the logits,
// which live in p.
func (m *Model) infer(p *pass, tokens []int) []float32 {
	x := m.embed(&p.out, tokens)
	for _, b := range m.Blocks {
		x = b.forward(x, &p.blockBuf, m.Heads, m.HeadDim(), m.Causal)
	}
	return m.headLogits(p.logits, m.pool(p.pooled, x))
}

// trainForward runs tokens through the blocks on each block's own
// buffers, where backward and the head-confidence metrics read them, and
// returns the last block's output.
func (m *Model) trainForward(tokens []int) *tensor.Matrix {
	x := m.embed(tensor.New(len(tokens), m.Hidden), tokens)
	for _, b := range m.Blocks {
		if b.train == nil {
			mem := make(slab, blockBufFloats(m.Config)+gradBufFloats(m.Config))
			f := makeBlockBuf(m.Config, &mem)
			b.train, b.grad = &f, makeGradBuf(m.Config, &mem)
		}
		x = b.forward(x, b.train, m.Heads, m.HeadDim(), m.Causal)
	}
	return x
}

// Logits runs a forward pass and returns the classification logits.
func (m *Model) Logits(tokens []int) []float32 {
	return m.infer(m.newPass(), tokens)
}

// Predict returns the argmax class for tokens.
func (m *Model) Predict(tokens []int) int {
	return stats.ArgMax(m.Logits(tokens))
}

// Probs returns the softmax class distribution for tokens.
func (m *Model) Probs(tokens []int) []float32 {
	return Softmax(m.Logits(tokens))
}

// Softmax returns the class distribution of logits.
func Softmax(logits []float32) []float32 {
	return tensor.SoftmaxRows(tensor.FromSlice(1, len(logits), logits)).Row(0)
}

// LossAndBackward computes the cross-entropy loss of tokens against label,
// accumulates parameter gradients, and returns the loss together with the
// gradient of the loss with respect to the embedding output (used by the
// adversarial attack to rank token substitutions).
func (m *Model) LossAndBackward(tokens []int, label int) (float64, *tensor.Matrix) {
	if label < 0 || label >= m.Labels {
		panic(fmt.Sprintf("transformer: label %d out of range [0,%d)", label, m.Labels))
	}
	acts := m.trainForward(tokens)
	pooled := m.pool(make([]float32, m.Hidden), acts)
	probs := Softmax(m.headLogits(make([]float32, m.Labels), pooled))
	p := probs[label]
	if p < 1e-12 {
		p = 1e-12
	}
	loss := -math.Log(float64(p))

	// Head backward.
	dLogits := make([]float32, m.Labels)
	copy(dLogits, probs)
	dLogits[label] -= 1
	for j := 0; j < m.Labels; j++ {
		m.HeadB.G.Data[j] += dLogits[j]
		for i := 0; i < m.Hidden; i++ {
			m.HeadW.G.Data[i*m.Labels+j] += pooled[i] * dLogits[j]
		}
	}
	// Mean pooling distributes the pooled gradient evenly over positions.
	dPooled := make([]float32, m.Hidden)
	for i := 0; i < m.Hidden; i++ {
		var s float32
		for j := 0; j < m.Labels; j++ {
			s += m.HeadW.V.At(i, j) * dLogits[j]
		}
		dPooled[i] = s / float32(acts.Rows)
	}
	dActs := tensor.New(acts.Rows, acts.Cols)
	for i := 0; i < acts.Rows; i++ {
		copy(dActs.Row(i), dPooled)
	}

	for l := len(m.Blocks) - 1; l >= 0; l-- {
		dActs = m.Blocks[l].backward(dActs, m.Heads, m.HeadDim())
	}
	// The caller owns the embedding gradient; block 0 reuses its buffer.
	dActs = dActs.Clone()

	// Embedding gradients.
	for i, tok := range tokens {
		g := dActs.Row(i)
		te := m.TokEmb.G.Row(tok)
		pe := m.PosEmb.G.Row(i)
		for j := range g {
			te[j] += g[j]
			pe[j] += g[j]
		}
	}
	return loss, dActs
}
