// Package tensor implements the float32 matrix arithmetic that underlies
// every model in the repository (the victim transformers, the fingerprint
// CNN, the ResNet analog). float32 is used throughout because Decepticon's
// selective weight extraction operates on IEEE 754 binary32 bit patterns.
package tensor

import (
	"fmt"
	"math"

	"decepticon/internal/rng"
)

// Matrix is a dense, row-major float32 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float32
}

// New returns a zero matrix of the given shape.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("tensor: negative dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromSlice wraps data (not copied) as a rows×cols matrix. It panics if
// the length does not match.
func FromSlice(rows, cols int, data []float32) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice %dx%d needs %d values, got %d", rows, cols, rows*cols, len(data)))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// Randn returns a rows×cols matrix with i.i.d. Gaussian entries of the
// given standard deviation.
func Randn(rows, cols int, std float64, r *rng.RNG) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.Normal(0, std)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice sharing m's storage.
func (m *Matrix) Row(i int) []float32 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero sets every element to 0 in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Resize reshapes m to rows×cols over its existing storage, which must
// have capacity for rows*cols values; the contents are unspecified. A
// buffer allocated for the largest shape a caller needs thereby serves
// every smaller one without allocating.
func (m *Matrix) Resize(rows, cols int) {
	if rows < 0 || cols < 0 || rows*cols > cap(m.Data) {
		panic(fmt.Sprintf("tensor: Resize to %dx%d exceeds capacity %d", rows, cols, cap(m.Data)))
	}
	m.Rows, m.Cols, m.Data = rows, cols, m.Data[:rows*cols]
}

// CopyFrom copies o's contents into m. Shapes must match.
func (m *Matrix) CopyFrom(o *Matrix) {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		panic("tensor: CopyFrom shape mismatch")
	}
	copy(m.Data, o.Data)
}

// shapeCheck panics unless a and b have identical shapes.
func shapeCheck(op string, a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// axpy computes dst += s * src for equal-length slices. It is the shared
// inner kernel of the gemm variants, written so the compiler can eliminate
// bounds checks.
func axpy(dst, src []float32, s float32) {
	if s == 0 {
		return
	}
	n := len(src)
	dst = dst[:n]
	for ; n >= 4; n -= 4 {
		dst[n-1] += s * src[n-1]
		dst[n-2] += s * src[n-2]
		dst[n-3] += s * src[n-3]
		dst[n-4] += s * src[n-4]
	}
	for i := 0; i < n; i++ {
		dst[i] += s * src[i]
	}
}

// axpy4 computes dst += s0*a0 + s1*a1 + s2*a2 + s3*a3 in one fused pass —
// the k-blocked inner kernel of MatMul/MatMulTN. Go evaluates float
// expressions left to right without reassociation, so the fused update is
// bit-identical to four sequential axpy calls. A zero scalar falls back to
// the per-lane path: axpy skips s == 0 entirely (no 0*Inf → NaN, no
// -0 + +0 sign normalization), and the fused form must not differ.
func axpy4(dst, a0, a1, a2, a3 []float32, s0, s1, s2, s3 float32) {
	if s0 == 0 || s1 == 0 || s2 == 0 || s3 == 0 {
		axpy(dst, a0, s0)
		axpy(dst, a1, s1)
		axpy(dst, a2, s2)
		axpy(dst, a3, s3)
		return
	}
	n := len(dst)
	a0, a1, a2, a3 = a0[:n], a1[:n], a2[:n], a3[:n]
	for j := 0; j < n; j++ {
		dst[j] = dst[j] + s0*a0[j] + s1*a1[j] + s2*a2[j] + s3*a3[j]
	}
}

// dot returns the inner product of two equal-length slices with four-way
// unrolling.
func dot(a, b []float32) float32 {
	n := len(a)
	b = b[:n]
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	s := s0 + s1 + s2 + s3
	for ; i < n; i++ {
		s += a[i] * b[i]
	}
	return s
}

// dot4 computes the inner products of a against four b rows in one pass,
// reusing each load of a across the rows. Every output replicates dot's
// exact four-accumulator pattern and tail, so dot4(a, b0..b3) is
// bit-identical to four dot calls.
func dot4(a, b0, b1, b2, b3 []float32) (r0, r1, r2, r3 float32) {
	n := len(a)
	b0, b1, b2, b3 = b0[:n], b1[:n], b2[:n], b3[:n]
	var s00, s01, s02, s03 float32
	var s10, s11, s12, s13 float32
	var s20, s21, s22, s23 float32
	var s30, s31, s32, s33 float32
	i := 0
	for ; i+4 <= n; i += 4 {
		av0, av1, av2, av3 := a[i], a[i+1], a[i+2], a[i+3]
		s00 += av0 * b0[i]
		s01 += av1 * b0[i+1]
		s02 += av2 * b0[i+2]
		s03 += av3 * b0[i+3]
		s10 += av0 * b1[i]
		s11 += av1 * b1[i+1]
		s12 += av2 * b1[i+2]
		s13 += av3 * b1[i+3]
		s20 += av0 * b2[i]
		s21 += av1 * b2[i+1]
		s22 += av2 * b2[i+2]
		s23 += av3 * b2[i+3]
		s30 += av0 * b3[i]
		s31 += av1 * b3[i+1]
		s32 += av2 * b3[i+2]
		s33 += av3 * b3[i+3]
	}
	r0 = s00 + s01 + s02 + s03
	r1 = s10 + s11 + s12 + s13
	r2 = s20 + s21 + s22 + s23
	r3 = s30 + s31 + s32 + s33
	for ; i < n; i++ {
		av := a[i]
		r0 += av * b0[i]
		r1 += av * b1[i]
		r2 += av * b2[i]
		r3 += av * b3[i]
	}
	return r0, r1, r2, r3
}

// dstCheck panics unless dst is rows×cols.
func dstCheck(op string, dst *Matrix, rows, cols int) {
	if dst.Rows != rows || dst.Cols != cols {
		panic(fmt.Sprintf("tensor: %s destination is %dx%d, want %dx%d", op, dst.Rows, dst.Cols, rows, cols))
	}
}

// MatMul returns a × b (a: m×k, b: k×n).
func MatMul(a, b *Matrix) *Matrix {
	return MatMulInto(New(a.Rows, b.Cols), a, b)
}

// MatMulInto writes a × b into dst (m×n) and returns dst. dst must not
// share storage with a or b.
func MatMulInto(dst, a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul inner dim mismatch %dx%d × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	dstCheck("MatMul", dst, a.Rows, b.Cols)
	n := b.Cols
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := dst.Data[i*n : (i+1)*n]
		clear(orow)
		k := 0
		for ; k+4 <= len(arow); k += 4 {
			axpy4(orow,
				b.Data[k*n:(k+1)*n], b.Data[(k+1)*n:(k+2)*n],
				b.Data[(k+2)*n:(k+3)*n], b.Data[(k+3)*n:(k+4)*n],
				arow[k], arow[k+1], arow[k+2], arow[k+3])
		}
		for ; k < len(arow); k++ {
			axpy(orow, b.Data[k*n:(k+1)*n], arow[k])
		}
	}
	return dst
}

// MatMulNT returns a × bᵀ (a: m×k, b: n×k).
func MatMulNT(a, b *Matrix) *Matrix {
	return MatMulNTInto(New(a.Rows, b.Rows), a, b)
}

// MatMulNTInto writes a × bᵀ into dst (m×n) and returns dst. dst must
// not share storage with a or b.
func MatMulNTInto(dst, a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulNT inner dim mismatch %dx%d × (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	dstCheck("MatMulNT", dst, a.Rows, b.Rows)
	k := a.Cols
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*k : (i+1)*k]
		orow := dst.Data[i*b.Rows : (i+1)*b.Rows]
		j := 0
		for ; j+4 <= len(orow); j += 4 {
			orow[j], orow[j+1], orow[j+2], orow[j+3] = dot4(arow,
				b.Data[j*k:(j+1)*k], b.Data[(j+1)*k:(j+2)*k],
				b.Data[(j+2)*k:(j+3)*k], b.Data[(j+3)*k:(j+4)*k])
		}
		for ; j < len(orow); j++ {
			orow[j] = dot(arow, b.Data[j*k:(j+1)*k])
		}
	}
	return dst
}

// MatMulTN returns aᵀ × b (a: k×m, b: k×n).
func MatMulTN(a, b *Matrix) *Matrix {
	return MatMulTNInto(New(a.Cols, b.Cols), a, b)
}

// MatMulTNInto writes aᵀ × b into dst (m×n) and returns dst. dst must
// not share storage with a or b.
func MatMulTNInto(dst, a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTN inner dim mismatch (%dx%d)ᵀ × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	dstCheck("MatMulTN", dst, a.Cols, b.Cols)
	clear(dst.Data)
	n := b.Cols
	m := a.Cols
	k := 0
	// k-blocked: each output row i accumulates its four k contributions in
	// the original k order, so per-element rounding order is unchanged.
	for ; k+4 <= a.Rows; k += 4 {
		a0 := a.Data[k*m : (k+1)*m]
		a1 := a.Data[(k+1)*m : (k+2)*m]
		a2 := a.Data[(k+2)*m : (k+3)*m]
		a3 := a.Data[(k+3)*m : (k+4)*m]
		b0 := b.Data[k*n : (k+1)*n]
		b1 := b.Data[(k+1)*n : (k+2)*n]
		b2 := b.Data[(k+2)*n : (k+3)*n]
		b3 := b.Data[(k+3)*n : (k+4)*n]
		for i := 0; i < m; i++ {
			axpy4(dst.Data[i*n:(i+1)*n], b0, b1, b2, b3, a0[i], a1[i], a2[i], a3[i])
		}
	}
	for ; k < a.Rows; k++ {
		arow := a.Data[k*m : (k+1)*m]
		brow := b.Data[k*n : (k+1)*n]
		for i, av := range arow {
			axpy(dst.Data[i*n:(i+1)*n], brow, av)
		}
	}
	return dst
}

// Transpose returns mᵀ.
func (m *Matrix) Transpose() *Matrix {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// Add returns a + b element-wise.
func Add(a, b *Matrix) *Matrix {
	return AddInto(New(a.Rows, a.Cols), a, b)
}

// AddInto writes a + b element-wise into dst and returns dst. dst may be
// a or b.
func AddInto(dst, a, b *Matrix) *Matrix {
	shapeCheck("Add", a, b)
	dstCheck("Add", dst, a.Rows, a.Cols)
	for i := range a.Data {
		dst.Data[i] = a.Data[i] + b.Data[i]
	}
	return dst
}

// Sub returns a - b element-wise.
func Sub(a, b *Matrix) *Matrix {
	shapeCheck("Sub", a, b)
	out := New(a.Rows, a.Cols)
	for i := range a.Data {
		out.Data[i] = a.Data[i] - b.Data[i]
	}
	return out
}

// Hadamard returns the element-wise product a ⊙ b.
func Hadamard(a, b *Matrix) *Matrix {
	return HadamardInto(New(a.Rows, a.Cols), a, b)
}

// HadamardInto writes a ⊙ b into dst and returns dst. dst may be a or b.
func HadamardInto(dst, a, b *Matrix) *Matrix {
	shapeCheck("Hadamard", a, b)
	dstCheck("Hadamard", dst, a.Rows, a.Cols)
	for i := range a.Data {
		dst.Data[i] = a.Data[i] * b.Data[i]
	}
	return dst
}

// AddInPlace adds b into a.
func AddInPlace(a, b *Matrix) {
	shapeCheck("AddInPlace", a, b)
	for i := range a.Data {
		a.Data[i] += b.Data[i]
	}
}

// Scale multiplies every element by s in place and returns m.
func (m *Matrix) Scale(s float32) *Matrix {
	for i := range m.Data {
		m.Data[i] *= s
	}
	return m
}

// AddRowVector adds the 1×Cols vector v to every row of m in place.
func (m *Matrix) AddRowVector(v []float32) {
	if len(v) != m.Cols {
		panic("tensor: AddRowVector length mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] += v[j]
		}
	}
}

// SumRows returns the column-wise sum of m as a length-Cols slice — the
// bias gradient for a dense layer.
func (m *Matrix) SumRows() []float32 {
	return m.SumRowsInto(make([]float32, m.Cols))
}

// SumRowsInto writes the column-wise sum of m into out (length Cols) and
// returns it.
func (m *Matrix) SumRowsInto(out []float32) []float32 {
	if len(out) != m.Cols {
		panic("tensor: SumRowsInto length mismatch")
	}
	clear(out)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			out[j] += row[j]
		}
	}
	return out
}

// SoftmaxRows applies a numerically stable softmax to each row of m,
// returning a new matrix.
func SoftmaxRows(m *Matrix) *Matrix {
	return SoftmaxRowsInto(New(m.Rows, m.Cols), m)
}

// SoftmaxRowsInto writes the row-wise softmax of m into dst and returns
// dst. dst may be m: each row's maximum is found before the row is
// written, and each element is read before it is overwritten.
func SoftmaxRowsInto(dst, m *Matrix) *Matrix {
	dstCheck("SoftmaxRows", dst, m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		orow := dst.Row(i)
		maxv := row[0]
		for _, v := range row {
			if v > maxv {
				maxv = v
			}
		}
		var sum float32
		for j, v := range row {
			e := float32(math.Exp(float64(v - maxv)))
			orow[j] = e
			sum += e
		}
		inv := 1 / sum
		for j := range orow {
			orow[j] *= inv
		}
	}
	return dst
}

// GELU applies the tanh-approximation GELU activation element-wise,
// returning a new matrix.
func GELU(m *Matrix) *Matrix {
	return GELUInto(New(m.Rows, m.Cols), m)
}

// GELUInto writes GELU(m) element-wise into dst and returns dst. dst may
// be m.
func GELUInto(dst, m *Matrix) *Matrix {
	dstCheck("GELU", dst, m.Rows, m.Cols)
	for i, x := range m.Data {
		dst.Data[i] = gelu(x)
	}
	return dst
}

const geluC = 0.7978845608028654 // sqrt(2/pi)

func gelu(x float32) float32 {
	xf := float64(x)
	return float32(0.5 * xf * (1 + math.Tanh(geluC*(xf+0.044715*xf*xf*xf))))
}

// GELUGrad returns the element-wise derivative of GELU evaluated at m.
func GELUGrad(m *Matrix) *Matrix {
	return GELUGradInto(New(m.Rows, m.Cols), m)
}

// GELUGradInto writes GELUGrad(m) into dst and returns dst. dst may be m.
func GELUGradInto(dst, m *Matrix) *Matrix {
	dstCheck("GELUGrad", dst, m.Rows, m.Cols)
	for i, x := range m.Data {
		dst.Data[i] = geluGrad(x)
	}
	return dst
}

func geluGrad(x float32) float32 {
	xf := float64(x)
	inner := geluC * (xf + 0.044715*xf*xf*xf)
	t := math.Tanh(inner)
	dInner := geluC * (1 + 3*0.044715*xf*xf)
	return float32(0.5*(1+t) + 0.5*xf*(1-t*t)*dInner)
}

// ReLU applies max(0, x) element-wise, returning a new matrix.
func ReLU(m *Matrix) *Matrix {
	out := New(m.Rows, m.Cols)
	for i, x := range m.Data {
		if x > 0 {
			out.Data[i] = x
		}
	}
	return out
}

// ReLUGradMask returns 1 where m > 0 and 0 elsewhere.
func ReLUGradMask(m *Matrix) *Matrix {
	out := New(m.Rows, m.Cols)
	for i, x := range m.Data {
		if x > 0 {
			out.Data[i] = 1
		}
	}
	return out
}

// Tanh applies tanh element-wise, returning a new matrix.
func Tanh(m *Matrix) *Matrix {
	out := New(m.Rows, m.Cols)
	for i, x := range m.Data {
		out.Data[i] = float32(math.Tanh(float64(x)))
	}
	return out
}

// MaxAbs returns the largest absolute element value of m (0 for empty).
func (m *Matrix) MaxAbs() float32 {
	var best float32
	for _, v := range m.Data {
		if v < 0 {
			v = -v
		}
		if v > best {
			best = v
		}
	}
	return best
}

// Frobenius returns the Frobenius norm of m.
func (m *Matrix) Frobenius() float64 {
	var s float64
	for _, v := range m.Data {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

// MeanAbsDiff returns mean |a - b| over all elements. It is the paper's
// "average weight value gap" metric (Figs 3-6, 19).
func MeanAbsDiff(a, b *Matrix) float64 {
	shapeCheck("MeanAbsDiff", a, b)
	if len(a.Data) == 0 {
		return 0
	}
	var s float64
	for i := range a.Data {
		d := float64(a.Data[i] - b.Data[i])
		if d < 0 {
			d = -d
		}
		s += d
	}
	return s / float64(len(a.Data))
}

// ApproxEqual reports whether a and b agree element-wise within tol.
func ApproxEqual(a, b *Matrix, tol float32) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		d := a.Data[i] - b.Data[i]
		if d < 0 {
			d = -d
		}
		if d > tol {
			return false
		}
	}
	return true
}
