package topology

// Deterministic, label-addressed randomness. Every stochastic decision
// in the generator is a pure function of (seed, labels...), so an AS
// keeps its attributes as eras advance and regeneration is bit-stable.
// The routing engine's churn draws use the same exported helpers.

// Mix64 is the splitmix64 finalizer — a strong 64-bit mixer.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// H64 hashes a sequence of values into one 64-bit word.
func H64(vals ...uint64) uint64 {
	acc := uint64(0x2545f4914f6cdd1d)
	for _, v := range vals {
		acc = Mix64(acc ^ v)
	}
	return acc
}

// Chain64 hashes a sequence of values with chained splitmix64 rounds
// that fold the accumulator into each value after its increment. It is
// a different mixer from H64; the collector's and the fault injector's
// draws use it, and the digests, goldens and fault schedules pin its
// output.
func Chain64(vals ...uint64) uint64 {
	acc := uint64(0x2545f4914f6cdd1d)
	for _, v := range vals {
		v += 0x9e3779b97f4a7c15
		v = (v ^ acc ^ (v >> 30)) * 0xbf58476d1ce4e5b9
		v = (v ^ (v >> 27)) * 0x94d049bb133111eb
		acc = v ^ (v >> 31)
	}
	return acc
}

// ChainUnit is Unit over Chain64.
func ChainUnit(vals ...uint64) float64 {
	return toUnit(Chain64(vals...))
}

// ChainPick is Pick over Chain64.
func ChainPick(n int, vals ...uint64) int {
	if n <= 0 {
		return 0
	}
	return int(Chain64(vals...) % uint64(n))
}

// Unit returns a uniform float64 in [0,1) addressed by the labels.
func Unit(vals ...uint64) float64 {
	return toUnit(H64(vals...))
}

// toUnit maps a hash to a uniform float64 in [0,1).
func toUnit(h uint64) float64 {
	return float64(h>>11) / float64(1<<53)
}

// Pick returns a uniform integer in [0,n) addressed by the labels.
func Pick(n int, vals ...uint64) int {
	if n <= 0 {
		return 0
	}
	return int(H64(vals...) % uint64(n))
}

// geometric samples a count >= 1 with continuation probability p: each
// extra unit occurs with probability p, capped at max.
func geometric(p float64, max int, vals ...uint64) int {
	n := 1
	for i := 0; n < max; i++ {
		if Unit(append(vals, 0x6e0+uint64(i))...) >= p {
			break
		}
		n++
	}
	return n
}
