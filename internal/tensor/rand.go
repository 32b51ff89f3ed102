package tensor

// Deterministic pseudo-random value generation. Embedding tables in the
// simulated SSD are far too large to materialise (the paper uses 30 GB per
// model), so vector contents are derived on demand from (seed, table, row,
// column) through a SplitMix64-style mix. The same generator seeds MLP
// weights, making every experiment bit-reproducible without storing data.

// Mix64 is a SplitMix64 finalizer: a bijective 64-bit mix with good
// avalanche behaviour.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashSeed is the state every key chain starts from.
const hashSeed uint64 = 0x243f6a8885a308d3

// HashFloat returns a deterministic float32 in [-1, 1) derived from the
// given keys.
func HashFloat(keys ...uint64) float32 { return hashToFloat(HashPrefix(keys...)) }

// HashPrefix folds keys into the hash state HashFloat would reach after
// them, so a caller drawing many values that share leading keys pays for
// those keys once: HashFloatFrom(HashPrefix(a, b), c) == HashFloat(a, b, c)
// bit for bit.
func HashPrefix(keys ...uint64) uint64 {
	h := hashSeed
	for _, k := range keys {
		h = Mix64(h ^ k)
	}
	return h
}

// HashFloatFrom returns HashFloat of the prefix's keys followed by k.
func HashFloatFrom(prefix, k uint64) float32 { return hashToFloat(Mix64(prefix ^ k)) }

// hashToFloat maps a hash state to [-1, 1): 24 mantissa bits give a uniform
// value in [0, 1), shifted to [-1, 1).
func hashToFloat(h uint64) float32 {
	u := float64(h>>40) / float64(1<<24)
	return float32(2*u - 1)
}

// RNG is a small deterministic PRNG (SplitMix64) for sequential generation.
type RNG struct{ state uint64 }

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next 64-bit value.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Float32Range returns a uniform float32 in [lo, hi).
func (r *RNG) Float32Range(lo, hi float32) float32 {
	return lo + float32(r.Float64())*(hi-lo)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("tensor: Intn with non-positive bound")
	}
	return int(r.Uint64() % uint64(n))
}

// FillMatrix initialises m with small deterministic weights derived from
// seed, in [-scale, scale). Element (r, c) is scale*HashFloat(seed, r, c).
func FillMatrix(m *Matrix, seed uint64, scale float32) {
	for r := 0; r < m.Rows; r++ {
		h := HashPrefix(seed, uint64(r))
		row := m.Row(r)
		for c := range row {
			row[c] = scale * HashFloatFrom(h, uint64(c))
		}
	}
}

// FillVector initialises v with deterministic values derived from seed, in
// [-scale, scale). Element i is scale*HashFloat(seed, i).
func FillVector(v Vector, seed uint64, scale float32) {
	h := HashPrefix(seed)
	for i := range v {
		v[i] = scale * HashFloatFrom(h, uint64(i))
	}
}
