// Package health is the pool control plane for GPU-server churn: a
// phi-accrual failure detector fed by simulated heartbeats, a server
// state registry, and a controller that drains suspected servers onto
// healthy peers over the remoting DMA-replay path and readmits them when
// their heartbeats resume. Everything runs inside the deterministic
// simulation — heartbeats are sim processes, suspicion thresholds are
// evaluated at sim time, and all randomness (beat jitter, beat loss)
// comes from seeded substreams — so a churn run is byte-identical across
// repetitions and worker counts, and a zero-fault run with the control
// plane enabled reproduces the control-plane-off run exactly: no fault
// windows means no missed beats, no suspicion, and no control action.
package health

import (
	"math"

	"repro/internal/sim"
)

// Detector is a phi-accrual failure detector for one server
// (Hayashibara et al., "The φ accrual failure detector", SRDS 2004). It
// keeps a ring of recent heartbeat inter-arrival intervals; Phi reports
// the suspicion level −log10 P(silence this long | history) under an
// exponential inter-arrival model: φ = 1 means the current silence had a
// 10% chance of being benign, φ = 2 means 1%, and so on. Suspicion is a
// continuous score, so one policy knob (the φ threshold) trades
// detection latency against false positives instead of a brittle fixed
// timeout.
//
// Observe and Phi are allocation-free: the controller calls them on
// every beat and every evaluator tick, and the steady-state benchmark
// holds them to zero allocs/op.
type Detector struct {
	prior  sim.Duration   // assumed mean interval until samples arrive
	buf    []sim.Duration // ring of recent inter-arrival intervals
	n      int            // live samples in buf
	idx    int            // next write position
	sum    sim.Duration   // running sum of the live samples
	last   sim.Time       // arrival time of the most recent beat
	primed bool           // first beat seen (intervals exist only after it)
}

// NewDetector builds a detector with the given sliding-window size and
// prior mean interval. The prior stands in for the empirical mean until
// real samples accumulate, so the very first silence is judged against
// the configured heartbeat period rather than garbage. window values
// below 1 are clamped to 1.
func NewDetector(window int, prior sim.Duration) *Detector {
	if window < 1 {
		window = 1
	}
	return &Detector{prior: prior, buf: make([]sim.Duration, window)}
}

// Observe records a heartbeat arrival at time t. The first observation
// only primes the clock; intervals are recorded from the second beat on.
// Out-of-order or duplicate timestamps (t not after the last beat) are
// ignored rather than recorded as zero-length intervals.
func (d *Detector) Observe(t sim.Time) {
	if !d.primed {
		d.primed = true
		d.last = t
		return
	}
	iv := t.Sub(d.last)
	if iv <= 0 {
		return
	}
	d.last = t
	if d.n == len(d.buf) {
		d.sum -= d.buf[d.idx]
	} else {
		d.n++
	}
	d.buf[d.idx] = iv
	d.sum += iv
	d.idx++
	if d.idx == len(d.buf) {
		d.idx = 0
	}
}

// Mean returns the windowed mean inter-arrival interval, or the prior
// when no intervals have been observed yet.
func (d *Detector) Mean() sim.Duration {
	if d.n == 0 {
		return d.prior
	}
	return d.sum / sim.Duration(d.n)
}

// Phi returns the suspicion level at time now: the negative decimal log
// of the probability that a beat gap of now−last arises from the
// observed exponential inter-arrival distribution, i.e.
// Δ / (mean · ln 10). It is 0 before any beat has been seen and 0 for
// non-positive gaps, and grows without bound as the silence stretches.
func (d *Detector) Phi(now sim.Time) float64 {
	if !d.primed {
		return 0
	}
	delta := now.Sub(d.last)
	if delta <= 0 {
		return 0
	}
	m := d.Mean()
	if m <= 0 {
		return math.Inf(1)
	}
	return float64(delta) / (float64(m) * math.Ln10)
}

// Last returns the arrival time of the most recent beat and whether any
// beat has been observed.
func (d *Detector) Last() (sim.Time, bool) { return d.last, d.primed }

// Reset forgets all history. The controller calls it when a server is
// declared dead, so the post-reboot detector judges the fresh beat
// stream against the prior instead of pre-crash intervals.
func (d *Detector) Reset() {
	d.n, d.idx, d.sum = 0, 0, 0
	d.primed = false
	d.last = sim.Time(0)
}
