package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMatrixAtSetRow(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatalf("At(1,2) = %v, want 7", m.At(1, 2))
	}
	row := m.Row(1)
	if len(row) != 3 || row[2] != 7 {
		t.Fatalf("Row(1) = %v, want [0 0 7]", row)
	}
	if m.SizeBytes() != 24 {
		t.Fatalf("SizeBytes = %d, want 24", m.SizeBytes())
	}
}

func TestNewMatrixValidation(t *testing.T) {
	for _, shape := range [][2]int{{0, 3}, {3, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewMatrix(%d,%d) did not panic", shape[0], shape[1])
				}
			}()
			NewMatrix(shape[0], shape[1])
		}()
	}
}

func TestMatVec(t *testing.T) {
	m := NewMatrix(2, 3)
	// [1 2 3; 4 5 6] * [1 1 1] = [6 15]
	copy(m.Data, []float32{1, 2, 3, 4, 5, 6})
	y := m.MatVec(Vector{1, 1, 1})
	if y[0] != 6 || y[1] != 15 {
		t.Fatalf("MatVec = %v, want [6 15]", y)
	}
}

func TestMatVecBias(t *testing.T) {
	m := NewMatrix(2, 2)
	copy(m.Data, []float32{1, 0, 0, 1})
	y := m.MatVecBias(Vector{3, 4}, Vector{10, 20})
	if y[0] != 13 || y[1] != 24 {
		t.Fatalf("MatVecBias = %v, want [13 24]", y)
	}
}

func TestMatVecShapeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMatrix(2, 3).MatVec(Vector{1, 2})
}

func TestSplitColsRecombines(t *testing.T) {
	m := NewMatrix(3, 5)
	FillMatrix(m, 42, 1)
	x := make(Vector, 5)
	FillVector(x, 7, 1)
	left, right := m.SplitCols(2)
	yFull := m.MatVec(x)
	ySplit := Add(left.MatVec(x[:2]), right.MatVec(x[2:]))
	if d := MaxAbsDiff(yFull, ySplit); d > 1e-6 {
		t.Fatalf("split recombination differs by %v", d)
	}
}

// Property: intra-layer decomposition is exact for any split point. This is
// the mathematical fact behind the paper's Fig. 8 optimization.
func TestSplitColsProperty(t *testing.T) {
	f := func(seed uint64, rows8, cols8, split8 uint8) bool {
		rows := int(rows8%6) + 1
		cols := int(cols8%6) + 2
		split := int(split8)%(cols-1) + 1
		m := NewMatrix(rows, cols)
		FillMatrix(m, seed, 1)
		x := make(Vector, cols)
		FillVector(x, seed+1, 1)
		l, r := m.SplitCols(split)
		got := Add(l.MatVec(x[:split]), r.MatVec(x[split:]))
		want := m.MatVec(x)
		return MaxAbsDiff(got, want) <= 1e-5
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSplitColsValidation(t *testing.T) {
	m := NewMatrix(2, 3)
	for _, n := range []int{0, 3, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SplitCols(%d) did not panic", n)
				}
			}()
			m.SplitCols(n)
		}()
	}
}

func TestClone(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 5)
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 5 {
		t.Fatal("Clone aliases original")
	}
	v := Vector{1, 2}
	cv := v.Clone()
	cv[0] = 9
	if v[0] != 1 {
		t.Fatal("Vector Clone aliases original")
	}
}

func TestAddAndAccumulate(t *testing.T) {
	a := Vector{1, 2}
	b := Vector{10, 20}
	got := Add(a, b)
	if got[0] != 11 || got[1] != 22 {
		t.Fatalf("Add = %v", got)
	}
	AccumulateInto(a, b)
	if a[0] != 11 || a[1] != 22 {
		t.Fatalf("AccumulateInto = %v", a)
	}
}

func TestScale(t *testing.T) {
	v := Scale(Vector{1, -2}, 3)
	if v[0] != 3 || v[1] != -6 {
		t.Fatalf("Scale = %v", v)
	}
}

func TestReLU(t *testing.T) {
	v := ReLU(Vector{-1, 0, 2.5})
	if v[0] != 0 || v[1] != 0 || v[2] != 2.5 {
		t.Fatalf("ReLU = %v", v)
	}
}

func TestSigmoid(t *testing.T) {
	v := Sigmoid(Vector{0})
	if math.Abs(float64(v[0])-0.5) > 1e-6 {
		t.Fatalf("Sigmoid(0) = %v, want 0.5", v[0])
	}
	v = Sigmoid(Vector{100, -100})
	if v[0] < 0.999 || v[1] > 0.001 {
		t.Fatalf("Sigmoid saturation = %v", v)
	}
}

func TestSigmoidMonotoneProperty(t *testing.T) {
	f := func(a, b float32) bool {
		if a != a || b != b { // NaN inputs
			return true
		}
		if a > 50 || a < -50 || b > 50 || b < -50 {
			return true
		}
		if a > b {
			a, b = b, a
		}
		sa := Sigmoid(Vector{a})[0]
		sb := Sigmoid(Vector{b})[0]
		return sa <= sb && sa >= 0 && sb <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConcat(t *testing.T) {
	got := Concat(Vector{1}, Vector{2, 3}, nil, Vector{4})
	want := Vector{1, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("Concat = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Concat = %v, want %v", got, want)
		}
	}
}

func TestDot(t *testing.T) {
	if Dot(Vector{1, 2, 3}, Vector{4, 5, 6}) != 32 {
		t.Fatal("Dot broken")
	}
}

func TestMaxAbsDiff(t *testing.T) {
	if d := MaxAbsDiff(Vector{1, 5}, Vector{1.5, 3}); d != 2 {
		t.Fatalf("MaxAbsDiff = %v, want 2", d)
	}
	if d := MaxAbsDiff(Vector{}, Vector{}); d != 0 {
		t.Fatalf("empty MaxAbsDiff = %v, want 0", d)
	}
}

func TestHashFloatDeterministicAndBounded(t *testing.T) {
	a := HashFloat(1, 2, 3)
	b := HashFloat(1, 2, 3)
	if a != b {
		t.Fatal("HashFloat not deterministic")
	}
	if HashFloat(1, 2, 3) == HashFloat(1, 2, 4) {
		t.Fatal("HashFloat collision on adjacent keys (suspicious)")
	}
	for i := uint64(0); i < 1000; i++ {
		v := HashFloat(i)
		if v < -1 || v >= 1 {
			t.Fatalf("HashFloat out of range: %v", v)
		}
	}
}

func TestHashFloatRoughlyCentered(t *testing.T) {
	var sum float64
	const n = 10000
	for i := uint64(0); i < n; i++ {
		sum += float64(HashFloat(99, i))
	}
	if mean := sum / n; math.Abs(mean) > 0.05 {
		t.Fatalf("HashFloat mean = %v, want ~0", mean)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("RNG not deterministic")
		}
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 1000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGIntn(t *testing.T) {
	r := NewRNG(2)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn covered %d values of 10", len(seen))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	r.Intn(0)
}

func TestFillMatrixScale(t *testing.T) {
	m := NewMatrix(10, 10)
	FillMatrix(m, 3, 0.1)
	for _, v := range m.Data {
		if v < -0.1 || v >= 0.1 {
			t.Fatalf("FillMatrix value %v outside [-0.1, 0.1)", v)
		}
	}
	m2 := NewMatrix(10, 10)
	FillMatrix(m2, 3, 0.1)
	if MaxAbsDiff(m.Data, m2.Data) != 0 {
		t.Fatal("FillMatrix not deterministic")
	}
}

func TestMix64Bijective(t *testing.T) {
	// Spot-check injectivity over a small domain.
	seen := map[uint64]uint64{}
	for i := uint64(0); i < 10000; i++ {
		h := Mix64(i)
		if prev, ok := seen[h]; ok {
			t.Fatalf("Mix64 collision: %d and %d -> %d", prev, i, h)
		}
		seen[h] = i
	}
}

// HashFloatFrom over a HashPrefix of the leading keys must reproduce
// HashFloat over all of them bit for bit, for every key count the
// generators use.
func TestHashFloatFromPrefixMatchesHashFloat(t *testing.T) {
	rng := NewRNG(0x5eed)
	for n := 1; n <= 4; n++ {
		for trial := 0; trial < 1000; trial++ {
			keys := make([]uint64, n)
			for i := range keys {
				keys[i] = rng.Uint64()
			}
			got := HashFloatFrom(HashPrefix(keys[:n-1]...), keys[n-1])
			if want := HashFloat(keys...); math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("keys %v: HashFloatFrom(HashPrefix) = %v, HashFloat = %v", keys, got, want)
			}
		}
	}
}

// The weight fills are defined element by element through HashFloat.
func TestFillMatchesHashFloat(t *testing.T) {
	m := NewMatrix(5, 7)
	FillMatrix(m, 11, 0.5)
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			if want := 0.5 * HashFloat(11, uint64(r), uint64(c)); math.Float32bits(m.At(r, c)) != math.Float32bits(want) {
				t.Fatalf("FillMatrix (%d,%d) = %v, want %v", r, c, m.At(r, c), want)
			}
		}
	}
	v := make(Vector, 9)
	FillVector(v, 12, 0.25)
	for i, x := range v {
		if want := 0.25 * HashFloat(12, uint64(i)); math.Float32bits(x) != math.Float32bits(want) {
			t.Fatalf("FillVector [%d] = %v, want %v", i, x, want)
		}
	}
}

// matVecRef is the one-row-at-a-time kernel MatVec must match bit for bit:
// each row sums w*x over columns in order into one float32 accumulator.
func matVecRef(m *Matrix, x Vector) Vector {
	y := make(Vector, m.Rows)
	for r := range y {
		var acc float32
		for c := 0; c < m.Cols; c++ {
			acc += m.At(r, c) * x[c]
		}
		y[r] = acc
	}
	return y
}

// Every row count from 1 to 9 runs the four-row passes and each remainder
// length; column counts include 1.
func TestMatVecMatchesScalarRows(t *testing.T) {
	for rows := 1; rows <= 9; rows++ {
		for _, cols := range []int{1, 2, 3, 5, 8, 33} {
			m := NewMatrix(rows, cols)
			FillMatrix(m, uint64(rows*100+cols), 1)
			x := make(Vector, cols)
			FillVector(x, uint64(rows*100+cols+1), 1)
			got, want := m.MatVec(x), matVecRef(m, x)
			for r := range want {
				if math.Float32bits(got[r]) != math.Float32bits(want[r]) {
					t.Fatalf("%dx%d row %d: MatVec %v, scalar reference %v", rows, cols, r, got[r], want[r])
				}
			}
		}
	}
}

// BenchmarkMatVec times RMC3's widest layer: the first bottom-MLP layer,
// 2560 dense inputs into 1024 outputs.
func BenchmarkMatVec(b *testing.B) {
	m := NewMatrix(1024, 2560)
	FillMatrix(m, 1, 0.02)
	x := make(Vector, 2560)
	FillVector(x, 2, 1)
	b.SetBytes(int64(m.SizeBytes()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MatVec(x)
	}
}
