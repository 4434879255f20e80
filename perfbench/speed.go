package main

import "time"

// Machine speed. The host of a shared VM runs the same CPU-bound code
// up to twice as fast at some times as at others, for seconds at a
// time, and gives the VM less CPU when other guests are busy. Both move
// every CPU-bound figure by more than a regression bound between runs
// of the same code. The benchmark therefore times a fixed piece of
// work, the probe, before every unit; the median probe time of the
// run's quiet units is its speed, and the CPU-bound end-to-end figures
// are reported at the reference speed: times divided by, rates
// multiplied by, that probe time over probeRefMs. The raw figures go to
// the env line.
const (
	// probeRefMs is the reference probe time: figures are reported as
	// on a machine that runs the probe in exactly this long.
	probeRefMs = 1.0
	// probesPerUnit is how many probes run before each unit.
	probesPerUnit = 5
)

// probeSink keeps the probe's work from being optimised away.
var probeSink int

// speedProbe times the probe, map-heavy work of the kind the program
// does, and returns its wall time in milliseconds.
func speedProbe() float64 {
	t0 := time.Now()
	m := make(map[int]int)
	x := uint64(88172645463325252)
	for i := 0; i < 40000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		m[int(x&4095)] += i
	}
	probeSink += len(m)
	return float64(time.Since(t0)) / float64(time.Millisecond)
}
