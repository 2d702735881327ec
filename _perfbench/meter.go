package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

// A span is one timed interval of the benchmark: the workload, one cell,
// or one call into a layer's public API. Spans nest workload → cell →
// call through parent.
type span struct {
	name   string
	layer  string
	start  time.Duration // since the meter's origin
	end    time.Duration
	parent int // index into meter.spans; -1 for the root
	cell   int // cell index within its pass; -1 outside cells
	pass   int
}

// A meter times every call a cell makes into the program. A call is
// either set-up (input generation, Start calls) or timed; the per-pass
// sums of both become setup_s and run_s. With tracing on it also keeps
// every interval as a span, in memory, for the Chrome trace and the
// self-time table.
type meter struct {
	tracing bool
	origin  time.Time
	spans   []span
	open    []int // stack of open span indices
	pass    int
	cell    int

	// Per-pass accumulators, reset by beginPass.
	setupTime time.Duration
	runTime   time.Duration
	calls     map[string]time.Duration // total time per call name
	counts    map[string]float64       // layer work counts and extra timers
}

func newMeter(tracing bool) *meter {
	return &meter{tracing: tracing, origin: time.Now(), cell: -1}
}

func (m *meter) beginPass(pass int) {
	m.pass = pass
	m.setupTime, m.runTime = 0, 0
	m.calls = map[string]time.Duration{}
	m.counts = map[string]float64{}
}

// push opens a span when tracing; it returns the span index or -1.
func (m *meter) push(name, layer string) int {
	if !m.tracing {
		return -1
	}
	parent := -1
	if n := len(m.open); n > 0 {
		parent = m.open[n-1]
	}
	m.spans = append(m.spans, span{
		name: name, layer: layer, start: time.Since(m.origin),
		parent: parent, cell: m.cell, pass: m.pass,
	})
	id := len(m.spans) - 1
	m.open = append(m.open, id)
	return id
}

func (m *meter) pop(id int) {
	if id < 0 {
		return
	}
	m.spans[id].end = time.Since(m.origin)
	m.open = m.open[:len(m.open)-1]
}

// layerOf maps a call name such as "pool.Start" or "sim.Env.Run" to the
// package it enters.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

func (m *meter) timeCall(name string, fn func() error) (time.Duration, error) {
	id := m.push(name, layerOf(name))
	t := time.Now()
	err := fn()
	d := time.Since(t)
	m.pop(id)
	m.calls[name] += d
	return d, err
}

// setup times a set-up call: it counts toward setup_s, not run_s.
func (m *meter) setup(name string, fn func() error) error {
	d, err := m.timeCall(name, fn)
	m.setupTime += d
	return err
}

// call times one call of the measured work: it counts toward run_s.
func (m *meter) call(name string, fn func() error) (time.Duration, error) {
	d, err := m.timeCall(name, fn)
	m.runTime += d
	return d, err
}

// add accumulates a per-pass layer count or timer.
func (m *meter) add(metric string, v float64) { m.counts[metric] += v }

// writeChromeTrace writes the spans as Chrome trace-event JSON, which
// chrome://tracing and Perfetto open directly. Nested spans share one
// track, so the viewer draws workload → cell → call as a flame.
func (m *meter) writeChromeTrace(w io.Writer, label string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]event, 0, len(m.spans))
	for i, s := range m.spans {
		evs = append(evs, event{
			Name: s.name, Cat: s.layer, Ph: "X",
			Ts:  float64(s.start) / float64(time.Microsecond),
			Dur: float64(s.end-s.start) / float64(time.Microsecond),
			Pid: 1, Tid: 1,
			Args: map[string]any{"id": i, "parent": s.parent, "cell": s.cell, "pass": s.pass},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{
		"traceEvents":     evs,
		"displayTimeUnit": "ms",
		"otherData":       map[string]string{"benchmark": label},
	})
}

// selfTimes returns each layer's self time: the time of its spans minus
// the part their child spans cover. Workload and cell spans belong to
// the layer "bench", so their self time is the benchmark's own overhead.
func (m *meter) selfTimes() map[string]time.Duration {
	self := make(map[string]time.Duration)
	for _, s := range m.spans {
		self[s.layer] += s.end - s.start
		if s.parent >= 0 {
			self[m.spans[s.parent].layer] -= s.end - s.start
		}
	}
	return self
}

// writeSelfTimeTable prints the per-layer self-time table, largest first.
func (m *meter) writeSelfTimeTable(w io.Writer) {
	self := m.selfTimes()
	spansOf := map[string]int{}
	var total time.Duration
	for _, s := range m.spans {
		spansOf[s.layer]++
		if s.parent < 0 {
			total += s.end - s.start
		}
	}
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool {
		if self[layers[i]] != self[layers[j]] {
			return self[layers[i]] > self[layers[j]]
		}
		return layers[i] < layers[j]
	})
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "layer\tself_s\tshare\tspans\t\n")
	for _, l := range layers {
		share := 0.0
		if total > 0 {
			share = float64(self[l]) / float64(total)
		}
		fmt.Fprintf(tw, "%s\t%.4f\t%.3f\t%d\t\n", l, self[l].Seconds(), share, spansOf[l])
	}
	tw.Flush()
}
