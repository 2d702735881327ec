package pool

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/health"
	"repro/internal/serve"
	"repro/internal/sim"
)

// pinCell is one pinned pool configuration; faulty cells attach the crash
// injector and the health control plane.
type pinCell struct {
	name   string
	cfg    Config
	faulty bool
}

// pinTenants is the serving reservation every pinned cell carves out, so
// pinned servers take part in placement and victim selection.
var pinTenants = []serve.Tenant{
	{Name: "chat", Rate: 100, MeanPromptTokens: 32, MeanOutputTokens: 8, SLO: 25 * sim.Millisecond},
}

// pinCells lists the placement-order pins: every policy on the default
// 512-server topology with the defragmenter off and on, then one crash
// cell on a 512-GPU pool whose drained servers re-place their gangs.
func pinCells() []pinCell {
	var cells []pinCell
	for pol := FirstFit; pol <= TierAware; pol++ {
		for _, df := range []bool{false, true} {
			cells = append(cells, pinCell{
				name: fmt.Sprintf("%v/defrag=%v", pol, df),
				cfg: Config{
					Topo:   DefaultTopology(),
					Policy: pol,
					Workload: Workload{
						Seed: 9001, Window: 200 * sim.Millisecond, Load: 0.95, Intensity: 1,
					},
					Defrag:      df,
					Serving:     pinTenants,
					ServingGPUs: 16,
				},
			})
		}
	}
	cells = append(cells, crashCell())
	return cells
}

// crashCell is a 2×4×16×4 = 512-GPU tier-aware pool with the defragmenter
// on, frequent crash outages and the health plane attached. Its 4-GPU
// servers force most gangs to spread, and its 128 servers span two index
// words.
func crashCell() pinCell {
	return pinCell{
		name: "crash",
		cfg: Config{
			Topo:   Topology{Rows: 2, RacksPerRow: 4, ServersPerRack: 16, GPUsPerServer: 4},
			Policy: TierAware,
			Workload: Workload{
				Seed: 9002, Window: 200 * sim.Millisecond, Load: 0.95, Intensity: 1,
			},
			Defrag:      true,
			Serving:     pinTenants,
			ServingGPUs: 16,
		},
		faulty: true,
	}
}

// startCell starts the cell's scheduler (and, for a faulty cell, its
// crash injector and health plane) on env.
func startCell(env *sim.Env, c pinCell) (*Scheduler, error) {
	s, err := Start(env, c.cfg)
	if err != nil || !c.faulty {
		return s, err
	}
	inj, err := faults.NewInjector(faults.Config{
		Seed:       9101,
		CrashAfter: sim.Second,
		CrashFor:   20 * sim.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	_, err = health.Start(env, s, inj, health.Config{
		Seed:     9201,
		Interval: sim.Millisecond,
		Horizon:  2 * c.cfg.Workload.Window,
		Path:     fabric.Preset(fabric.RackScale, 0),
	})
	return s, err
}

// pinnedStats are the cells' Stats as the linear-scan placement queries
// produced them; any change in placement order shows up as a changed
// field.
var pinnedStats = map[string]Stats{
	"firstfit/defrag=false":  {Jobs: 6063, Placed: 6063, Blocked: 0, Killed: 0, PeakConcurrent: 3097, PlaceLatencyMean: 0, PlaceLatencyMax: 0, FragAvg: 0, StrandedAvg: 89.95571827097405, StrandedPowerW: 4947.564504903573, Migrations: 0, MigrationBytes: 0, DrainMigrations: 0, Drains: 0, Readmissions: 0, Goodput: 0.9022433813321313, GoodputGPUs: 7376.741885771506, ServingReplicas: 16, ServingSlackMean: 1.1500000000000004e-06},
	"firstfit/defrag=true":   {Jobs: 6063, Placed: 6063, Blocked: 0, Killed: 0, PeakConcurrent: 3097, PlaceLatencyMean: 0, PlaceLatencyMax: 0, FragAvg: 0, StrandedAvg: 89.94497757000762, StrandedPowerW: 4946.973766350419, Migrations: 89, MigrationBytes: 42278584320, DrainMigrations: 0, Drains: 0, Readmissions: 0, Goodput: 0.9028010405621008, GoodputGPUs: 7381.301307635736, ServingReplicas: 16, ServingSlackMean: 1.1500000000000004e-06},
	"bestfit/defrag=false":   {Jobs: 6063, Placed: 6063, Blocked: 0, Killed: 0, PeakConcurrent: 3097, PlaceLatencyMean: 0, PlaceLatencyMax: 0, FragAvg: 0, StrandedAvg: 124.89229663587008, StrandedPowerW: 6869.076314972855, Migrations: 0, MigrationBytes: 0, DrainMigrations: 0, Drains: 0, Readmissions: 0, Goodput: 0.9550545541407354, GoodputGPUs: 7808.526034654652, ServingReplicas: 16, ServingSlackMean: 1.1500000000000004e-06},
	"bestfit/defrag=true":    {Jobs: 6063, Placed: 6063, Blocked: 0, Killed: 0, PeakConcurrent: 3097, PlaceLatencyMean: 0, PlaceLatencyMax: 0, FragAvg: 0, StrandedAvg: 115.59235305987025, StrandedPowerW: 6357.579418292864, Migrations: 74, MigrationBytes: 31541166080, DrainMigrations: 0, Drains: 0, Readmissions: 0, Goodput: 0.9550545541407354, GoodputGPUs: 7808.526034654652, ServingReplicas: 16, ServingSlackMean: 1.1500000000000004e-06},
	"tieraware/defrag=false": {Jobs: 6063, Placed: 6063, Blocked: 0, Killed: 0, PeakConcurrent: 3097, PlaceLatencyMean: 0, PlaceLatencyMax: 0, FragAvg: 0, StrandedAvg: 124.89229663587008, StrandedPowerW: 6869.076314972855, Migrations: 0, MigrationBytes: 0, DrainMigrations: 0, Drains: 0, Readmissions: 0, Goodput: 0.9550545541407354, GoodputGPUs: 7808.526034654652, ServingReplicas: 16, ServingSlackMean: 1.1500000000000004e-06},
	"tieraware/defrag=true":  {Jobs: 6063, Placed: 6063, Blocked: 0, Killed: 0, PeakConcurrent: 3097, PlaceLatencyMean: 0, PlaceLatencyMax: 0, FragAvg: 0, StrandedAvg: 115.59235305987025, StrandedPowerW: 6357.579418292864, Migrations: 74, MigrationBytes: 31541166080, DrainMigrations: 0, Drains: 0, Readmissions: 0, Goodput: 0.9550545541407354, GoodputGPUs: 7808.526034654652, ServingReplicas: 16, ServingSlackMean: 1.1500000000000004e-06},
	"crash":                  {Jobs: 378, Placed: 378, Blocked: 1, Killed: 0, PeakConcurrent: 213, PlaceLatencyMean: 1.5224460802351787e-05, PlaceLatencyMax: 0.005754846183288975, FragAvg: 0, StrandedAvg: 5.434392140385304, StrandedPowerW: 298.89156772119173, Migrations: 41, MigrationBytes: 71269613568, DrainMigrations: 52, Drains: 42, Readmissions: 40, Goodput: 0.7804362507158683, GoodputGPUs: 387.09638035507066, ServingReplicas: 16, ServingSlackMean: 1.1500000000000004e-06},
}

// TestPlacementPinned runs every pinned cell and compares its Stats field
// by field with the recorded values.
func TestPlacementPinned(t *testing.T) {
	for _, c := range pinCells() {
		t.Run(c.name, func(t *testing.T) {
			env := sim.NewEnv()
			defer env.Close()
			s, err := startCell(env, c)
			if err != nil {
				t.Fatal(err)
			}
			env.Run()
			got := s.Stats()
			want, ok := pinnedStats[c.name]
			if !ok {
				t.Fatalf("no pinned stats; got %#v", got)
			}
			gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
			for i := 0; i < gv.NumField(); i++ {
				if g, w := gv.Field(i).Interface(), wv.Field(i).Interface(); g != w {
					t.Errorf("%s = %#v, pinned %#v", gv.Type().Field(i).Name, g, w)
				}
			}
		})
	}
}
