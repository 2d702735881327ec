package cdi

import (
	"runtime/debug"
	"testing"
)

// TestAllocsPinned pins the exact heap allocations of one op of each
// steady-state benchmark body: the serving batcher and arrival cursor, the
// proxy thread loop, the LAMMPS and CosmoFlow performance runs (rank steps,
// GPU stream steps, the engine's schedule and yield), an MPI allreduce, a
// managed churn cell (health heartbeats) and the pool's placement path.
// Each case runs the same op its benchmark times. Allocation counts are
// deterministic, so a change in either direction fails here until the pin
// is moved on purpose, with a CHANGES.md line saying why.
func TestAllocsPinned(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector's instrumentation changes allocation counts")
	}
	// A fixed warm-up before the measured runs: the first op allocates
	// process-wide state that later ops reuse, such as goroutine structs
	// for the engine's coroutines (the first LAMMPS op reads 399, not 391).
	const warmup, runs = 2, 5
	for _, tc := range []struct {
		name string
		op   func(testing.TB) func()
		want float64
	}{
		{"ServeSteadyState", serveSteadyStateOp, 113},
		{"ProxyIteration", proxyIterationOp, 83},
		{"LAMMPSPerfStep", lammpsPerfStepOp, 391},
		{"CosmoFlowPerfStep", cosmoFlowPerfStepOp, 215},
		{"MPIAllreduce", mpiAllreduceOp, 191},
		{"ChurnSteadyState", churnSteadyStateOp, 1922},
		{"PoolPlacement", poolPlacementOp, 1090},
	} {
		t.Run(tc.name, func(t *testing.T) {
			op := tc.op(t)
			for i := 0; i < warmup; i++ {
				op()
			}
			if got := testing.AllocsPerRun(runs, op); got != tc.want {
				t.Errorf("%v allocs/op, pinned %v", got, tc.want)
			}
		})
	}
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
