package topology

import "math"

// Deterministic, label-addressed randomness. Every stochastic decision
// in the generator is a pure function of (seed, labels...), so an AS
// keeps its attributes as eras advance and regeneration is bit-stable.

// mix64 is the splitmix64 finalizer — a strong 64-bit mixer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// h64 hashes a sequence of values into one 64-bit word.
func h64(vals ...uint64) uint64 {
	acc := uint64(0x2545f4914f6cdd1d)
	for _, v := range vals {
		acc = mix64(acc ^ v)
	}
	return acc
}

// unit returns a uniform float64 in [0,1) addressed by the labels.
func unit(vals ...uint64) float64 {
	return toUnit(h64(vals...))
}

// toUnit maps a hash to a uniform float64 in [0,1).
func toUnit(h uint64) float64 {
	return float64(h>>11) / float64(1<<53)
}

// pick returns a uniform integer in [0,n) addressed by the labels.
func pick(n int, vals ...uint64) int {
	if n <= 0 {
		return 0
	}
	return int(h64(vals...) % uint64(n))
}

// geometric samples a count >= 1 with continuation probability p: each
// extra unit occurs with probability p, capped at max.
func geometric(p float64, max int, vals ...uint64) int {
	n := 1
	for i := 0; n < max; i++ {
		if unit(append(vals, 0x6e0+uint64(i))...) >= p {
			break
		}
		n++
	}
	return n
}

// pareto samples a discrete heavy-tailed value in [1, max] with shape
// alpha (smaller alpha = heavier tail).
func pareto(alpha float64, max int, vals ...uint64) int {
	u := unit(vals...)
	if u < 1e-12 {
		u = 1e-12
	}
	n := int(math.Pow(1.0/u, 1.0/alpha))
	if n < 1 {
		n = 1
	}
	if n > max {
		n = max
	}
	return n
}
