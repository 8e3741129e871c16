package main

import "time"

// The machine probe is a diagnostic, not a correction: every metric is
// reported as measured.
//
// The boxes this benchmark runs on are small shared VMs whose neighbours
// take memory bandwidth from them: for minutes, and on a bad day for an
// hour, everything memory-bound, the engine included, runs 15 to 40 %
// slower. So while a phase runs, the machine itself is timed
// probesPerPhase times between statements (never inside a statement's
// timing) with a read-modify-write pass over 32 MB that depends on memory
// bandwidth and on nothing in the engine. The phase's median is printed
// with every run and reported as bench.machine_probe_ms: a run whose
// probe stands out from its neighbours' was taken in such a spell and can
// be taken again.
//
// Passes are single and apart on purpose: a second pass straight after
// the first finds half the array in the last-level cache and measures
// that instead.
const (
	probeWords     = 4 << 20 // 32 MB of uint64
	probesPerPhase = 24
)

var (
	probeArr  []uint64
	probeSink uint64
)

// machineProbe times one pass, in ms.
func machineProbe() float64 {
	if probeArr == nil {
		probeArr = make([]uint64, probeWords)
		for i := range probeArr {
			probeArr[i] = uint64(i)
		}
	}
	t0 := time.Now()
	var s uint64
	for i := range probeArr {
		s += probeArr[i]
		probeArr[i] = s | 1
	}
	probeSink += s
	return msOf(time.Since(t0))
}

// probeEvery is how many statements lie between two probes of a stream
// of n.
func probeEvery(n int) int { return n/probesPerPhase + 1 }
