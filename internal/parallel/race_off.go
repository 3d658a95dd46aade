//go:build !race

package parallel

// raceEnabled mirrors the -race build flag: race runs always exercise
// the real multi-goroutine pool (see EffectiveWorkers).
const raceEnabled = false
