package experiments

import (
	"testing"

	"repro/internal/pool"
	"repro/internal/sim"
)

// TestEngineWorkPinned is the exact work gate: it pins the engine's
// deterministic work counters for a managed churn cell (serving over a
// resilient pool with the health plane and armed admission) and a pool
// crash cell (scheduler, job-end and migration notifiers, health plane).
// Counters trade no noise for nanoseconds, so any change in the number of
// events, coroutine switches or spawns fails here until the pin is moved
// on purpose. Events delivered (Wakeups + Inline) move only with the
// simulated program; Switches fall as process bodies become step bodies.
func TestEngineWorkPinned(t *testing.T) {
	window := Quick().ServeWindow
	for _, tc := range []struct {
		name string
		run  func(env *sim.Env) error
		want sim.Stats
	}{
		{"churn-managed", func(env *sim.Env) error {
			// Row-scale slack, load 1, full churn intensity: WriteChurnTrace's cell.
			_, err := churnCell(env, 100*sim.Microsecond, 1, churnIntensities[2], window, 1, 2, true)
			return err
		}, sim.Stats{Wakeups: 2664, Inline: 21231, Steps: 16178, Switches: 2582, Spawns: 594}},
		{"pool-crash", func(env *sim.Env) error {
			_, err := poolCell(env, poolJob{polIdx: int(pool.TierAware), churnIdx: 1, defrag: true, faulty: true}, window)
			return err
		}, sim.Stats{Wakeups: 1030, Inline: 128407, Steps: 127743, Switches: 907, Spawns: 552}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := sim.NewEnv()
			defer env.Close()
			if err := tc.run(env); err != nil {
				t.Fatal(err)
			}
			if got := env.Stats(); got != tc.want {
				t.Errorf("engine work moved (events %d, pinned %d):\ngot  %+v\nwant %+v",
					got.Wakeups+got.Inline, tc.want.Wakeups+tc.want.Inline, got, tc.want)
			}
		})
	}
}
