package lammps

import (
	"testing"

	"repro/internal/sim"
)

// TestFigure2WorkPinned pins the engine's deterministic work counters for
// Figure 2's box-60 cell at 8 ranks and the quick step count: rank steps,
// MPI halo exchanges and barriers, and the shared GPU's stream steps.
// Figure 2 dominates paper-mode wall time, so a change in its events,
// coroutine switches or spawns fails here until the pin is moved on
// purpose, with a CHANGES.md line saying why.
func TestFigure2WorkPinned(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	if _, err := runPerf(env, PerfConfig{BoxSize: 60, Procs: 8, Steps: 40}); err != nil {
		t.Fatal(err)
	}
	want := sim.Stats{Wakeups: 5872, Inline: 3968, Steps: 2944, Switches: 5872, Spawns: 16}
	if got := env.Stats(); got != want {
		t.Errorf("engine work moved (events %d, pinned %d):\ngot  %+v\nwant %+v",
			got.Wakeups+got.Inline, want.Wakeups+want.Inline, got, want)
	}
}
