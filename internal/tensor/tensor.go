// Package tensor provides the minimal float32 linear algebra used by both
// the host-side reference model and the simulated FPGA engines: dense
// vectors, row-major matrices, GEMV/GEMM, elementwise activations and
// concatenation.
//
// Precision note: the paper keeps MLP weights and embedding vectors in FP32
// without quantization because recommendation models are accuracy-sensitive
// (Section IV-C1). All arithmetic here is float32 with float64 accumulation
// disabled on purpose, to mirror that.
package tensor

import (
	"fmt"
	"math"
)

// Vector is a dense float32 vector.
type Vector []float32

// Matrix is a dense row-major float32 matrix: element (r, c) lives at
// Data[r*Cols+c]. For an FC layer with R inputs and C outputs the weight
// matrix has Rows=C and Cols=R so that y = W*x.
type Matrix struct {
	Rows, Cols int
	Data       []float32
}

// NewMatrix allocates a zeroed Rows x Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("tensor: invalid matrix shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// At returns element (r, c).
func (m *Matrix) At(r, c int) float32 { return m.Data[r*m.Cols+c] }

// Set assigns element (r, c).
func (m *Matrix) Set(r, c int, v float32) { m.Data[r*m.Cols+c] = v }

// Row returns row r as a slice aliasing the matrix storage.
func (m *Matrix) Row(r int) Vector { return Vector(m.Data[r*m.Cols : (r+1)*m.Cols]) }

// SizeBytes returns the storage footprint of the matrix in bytes (FP32).
func (m *Matrix) SizeBytes() int { return 4 * m.Rows * m.Cols }

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// MatVec computes y = m * x where x has length m.Cols. The result has
// length m.Rows.
//
// Rows are computed four per pass over x, one accumulator each, and the
// remaining rows one at a time. Every row still sums its columns in order
// 0..Cols-1 into a float32 accumulator, so y is bit-identical to a one-row
// loop wherever the compiler does not fuse multiply-adds (amd64 at the
// default GOAMD64=v1). Four independent add chains also keep the kernel's
// speed from hinging on where the linker happens to place its loop.
func (m *Matrix) MatVec(x Vector) Vector {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("tensor: MatVec shape mismatch: %dx%d by %d", m.Rows, m.Cols, len(x)))
	}
	y := make(Vector, m.Rows)
	n := m.Cols
	r := 0
	for ; r+4 <= m.Rows; r += 4 {
		w0 := m.Data[r*n : (r+1)*n]
		w1 := m.Data[(r+1)*n : (r+2)*n]
		w2 := m.Data[(r+2)*n : (r+3)*n]
		w3 := m.Data[(r+3)*n : (r+4)*n]
		w1, w2, w3 = w1[:len(w0)], w2[:len(w0)], w3[:len(w0)]
		x := x[:len(w0)]
		var a0, a1, a2, a3 float32
		for c, w := range w0 {
			xc := x[c]
			a0 += w * xc
			a1 += w1[c] * xc
			a2 += w2[c] * xc
			a3 += w3[c] * xc
		}
		y[r], y[r+1], y[r+2], y[r+3] = a0, a1, a2, a3
	}
	for ; r < m.Rows; r++ {
		var acc float32
		for c, w := range m.Data[r*n : (r+1)*n] {
			acc += w * x[c]
		}
		y[r] = acc
	}
	return y
}

// MatVecBias computes y = m*x + b.
func (m *Matrix) MatVecBias(x, b Vector) Vector {
	if len(b) != m.Rows {
		panic(fmt.Sprintf("tensor: bias length %d, want %d", len(b), m.Rows))
	}
	y := m.MatVec(x)
	for i := range y {
		y[i] += b[i]
	}
	return y
}

// SplitCols splits the matrix column-wise into a left part with nLeft
// columns and a right part with the remainder. This implements the paper's
// intra-layer decomposition (Section IV-C2): the first top-MLP layer's
// weights RC decompose into Rb*C + Re*C halves applied to the bottom-MLP
// output and the embedding output independently.
func (m *Matrix) SplitCols(nLeft int) (left, right *Matrix) {
	if nLeft <= 0 || nLeft >= m.Cols {
		panic(fmt.Sprintf("tensor: SplitCols(%d) on %d columns", nLeft, m.Cols))
	}
	left = NewMatrix(m.Rows, nLeft)
	right = NewMatrix(m.Rows, m.Cols-nLeft)
	for r := 0; r < m.Rows; r++ {
		src := m.Data[r*m.Cols : (r+1)*m.Cols]
		copy(left.Data[r*nLeft:(r+1)*nLeft], src[:nLeft])
		copy(right.Data[r*right.Cols:(r+1)*right.Cols], src[nLeft:])
	}
	return left, right
}

// Add returns a+b elementwise.
func Add(a, b Vector) Vector {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: Add length mismatch %d vs %d", len(a), len(b)))
	}
	out := make(Vector, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// AccumulateInto adds src into dst elementwise (dst += src).
func AccumulateInto(dst, src Vector) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: Accumulate length mismatch %d vs %d", len(dst), len(src)))
	}
	for i := range src {
		dst[i] += src[i]
	}
}

// Scale multiplies every element of v by s in place and returns v.
func Scale(v Vector, s float32) Vector {
	for i := range v {
		v[i] *= s
	}
	return v
}

// ReLU applies max(0, x) elementwise in place and returns v.
func ReLU(v Vector) Vector {
	for i, x := range v {
		if x < 0 {
			v[i] = 0
		}
	}
	return v
}

// Sigmoid applies the logistic function elementwise in place and returns v.
func Sigmoid(v Vector) Vector {
	for i, x := range v {
		v[i] = 1 / (1 + exp32(-x))
	}
	return v
}

// Concat concatenates vectors in order into one new vector.
func Concat(vs ...Vector) Vector {
	var n int
	for _, v := range vs {
		n += len(v)
	}
	out := make(Vector, 0, n)
	for _, v := range vs {
		out = append(out, v...)
	}
	return out
}

// Dot returns the inner product of a and b.
func Dot(a, b Vector) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	var acc float32
	for i := range a {
		acc += a[i] * b[i]
	}
	return acc
}

// MaxAbsDiff returns the largest absolute elementwise difference between a
// and b; used by equivalence tests between implementations.
func MaxAbsDiff(a, b Vector) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: MaxAbsDiff length mismatch %d vs %d", len(a), len(b)))
	}
	var m float32
	for i := range a {
		d := a[i] - b[i]
		if d < 0 {
			d = -d
		}
		if d > m {
			m = d
		}
	}
	return m
}

// Clone returns a copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// exp32 is exp for float32 operands, computed in float64 and rounded once.
func exp32(x float32) float32 { return float32(math.Exp(float64(x))) }
