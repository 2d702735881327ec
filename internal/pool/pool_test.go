package pool

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/fabric"
	"repro/internal/serve"
	"repro/internal/sim"
)

// TestFragEdgeCases pins the fragmentation metric's degenerate corners:
// every input produces a finite value in [0, 1], never NaN or a panic.
func TestFragEdgeCases(t *testing.T) {
	cases := []struct {
		name                     string
		totalFree, largest, gang int
		want                     float64
	}{
		{"zero free capacity", 0, 0, 16, 0},
		{"negative free", -3, 0, 16, 0},
		{"zero reference gang", 128, 4, 0, 0},
		{"negative reference gang", 128, 4, -1, 0},
		{"single-GPU pool", 1, 1, 16, 0},
		{"single free fragment", 1, 0, 16, 1},
		{"whole gang fits", 64, 16, 16, 0},
		{"half a gang fits", 64, 8, 16, 0.5},
		{"shattered", 64, 1, 16, 1 - 1.0/16},
		{"largest overshoots denom", 4, 9, 16, 0},
		{"negative largest clamps", 8, -2, 16, 1},
		{"free below gang, block covers it", 5, 5, 16, 0},
	}
	for _, c := range cases {
		got := Fragmentation(c.totalFree, c.largest, c.gang)
		if math.IsNaN(got) || math.IsInf(got, 0) {
			t.Fatalf("%s: Fragmentation(%d,%d,%d) = %v, want finite",
				c.name, c.totalFree, c.largest, c.gang, got)
		}
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: Fragmentation(%d,%d,%d) = %g, want %g",
				c.name, c.totalFree, c.largest, c.gang, got, c.want)
		}
		if got < 0 || got > 1 {
			t.Errorf("%s: metric %g outside [0,1]", c.name, got)
		}
	}
	strandedCases := []struct {
		free, capEff, gang, want int
	}{
		{-1, 16, 16, 0},  // nothing free
		{0, 16, 16, 0},   // exhausted server
		{3, 16, 16, 3},   // trapped fragment
		{15, 16, 16, 15}, // one shy of the gang
		{16, 16, 16, 0},  // whole gang fits
		{40, 16, 16, 0},  // oversized block
		{15, 15, 16, 0},  // fully-free pinned server: small, not stranded
		{14, 15, 16, 14}, // pinned server with one job
		{4, 16, 0, 0},    // no reference demand
	}
	for _, c := range strandedCases {
		if got := strandedContrib(c.free, c.capEff, c.gang); got != c.want {
			t.Errorf("strandedContrib(%d, %d, %d) = %d, want %d",
				c.free, c.capEff, c.gang, got, c.want)
		}
	}
}

// TestGenerateJobs checks the schedule generator: deterministic across
// calls, warm cohort covering the load target, arrivals inside the
// window, and the zero-intensity arm frozen (no arrivals, lifetimes past
// the window).
func TestGenerateJobs(t *testing.T) {
	w := Workload{Seed: 1, Window: 100 * sim.Millisecond, Load: 0.75, Intensity: 1}
	a, err := GenerateJobs(w, 1024)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := GenerateJobs(w, 1024)
	if len(a) != len(b) {
		t.Fatalf("generator not deterministic: %d vs %d jobs", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("generator not deterministic at job %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	covered := 0
	for _, j := range a {
		if j.Arrival == 0 {
			covered += j.Gang
		}
		if j.Arrival.Sub(0) >= w.Window {
			t.Fatalf("job %d arrives at %v, beyond the window", j.ID, j.Arrival)
		}
		if j.Gang < 1 || j.Gang > 16 || j.Lifetime <= 0 {
			t.Fatalf("job %d malformed: %+v", j.ID, j)
		}
	}
	if covered < 768 {
		t.Fatalf("warm cohort covers %d GPUs, want >= 768", covered)
	}

	frozen, err := GenerateJobs(Workload{Seed: 1, Window: 100 * sim.Millisecond, Load: 0.5}, 1024)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range frozen {
		if j.Arrival != 0 {
			t.Fatalf("zero-intensity workload generated an arrival at %v", j.Arrival)
		}
		if j.Lifetime < 2*w.Window {
			t.Fatalf("zero-intensity lifetime %v inside the window", j.Lifetime)
		}
	}
}

// testTopo is a small pool for unit runs: 2 rows × 2 racks × 4 servers ×
// 8 GPUs = 128 GPUs on 16 servers.
func testTopo() Topology {
	return Topology{Rows: 2, RacksPerRow: 2, ServersPerRack: 4, GPUsPerServer: 8}
}

func runPool(t *testing.T, cfg Config) Stats {
	t.Helper()
	env := sim.NewEnv()
	defer env.Close()
	s, err := Start(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	env.Run()
	return s.Stats()
}

// runAudited drives env to completion in 1 ms RunUntil segments and
// fails at the first segment boundary where the scheduler's audit finds
// drift.
func runAudited(t *testing.T, env *sim.Env, s *Scheduler) {
	t.Helper()
	for at := sim.Time(0); env.Live() > 0; {
		if at = at.Add(sim.Millisecond); at.Sub(0) > 100*sim.Second {
			t.Fatalf("pool still running at %v", at)
		}
		env.RunUntil(at)
		if err := s.audit(); err != nil {
			t.Fatalf("at %v: %v", at, err)
		}
	}
}

// TestSchedulerSmoke runs a churning pool to completion under every
// policy, with the defragmenter off and on, and the pinned crash cell
// with its health plane draining and readmitting servers. It audits
// every aggregate after each millisecond and checks the accounting
// invariants: every job resolves, goodput lands in (0, 1], metrics stay
// finite.
func TestSchedulerSmoke(t *testing.T) {
	var cells []pinCell
	for pol := FirstFit; pol <= TierAware; pol++ {
		for _, df := range []bool{false, true} {
			cells = append(cells, pinCell{
				name: fmt.Sprintf("%v/defrag=%v", pol, df),
				cfg: Config{
					Topo:   testTopo(),
					Policy: pol,
					Workload: Workload{
						Seed: 7, Window: 50 * sim.Millisecond, Load: 0.7, Intensity: 1,
					},
					Defrag: df,
				},
			})
		}
	}
	for _, c := range append(cells, crashCell()) {
		t.Run(c.name, func(t *testing.T) {
			env := sim.NewEnv()
			defer env.Close()
			s, err := startCell(env, c)
			if err != nil {
				t.Fatal(err)
			}
			runAudited(t, env, s)
			st := s.Stats()
			if st.Jobs == 0 || st.Placed == 0 {
				t.Fatalf("no jobs ran: %+v", st)
			}
			if st.Placed+st.Killed < st.Jobs {
				t.Fatalf("%d jobs, only %d placed + %d killed", st.Jobs, st.Placed, st.Killed)
			}
			if st.Goodput <= 0 || st.Goodput > 1 {
				t.Fatalf("goodput %g outside (0, 1]", st.Goodput)
			}
			if math.IsNaN(st.FragAvg) || st.FragAvg < 0 || st.FragAvg > 1 {
				t.Fatalf("frag average %g", st.FragAvg)
			}
			if st.StrandedAvg < 0 {
				t.Fatalf("stranded average %g", st.StrandedAvg)
			}
			if st.PeakConcurrent <= 0 {
				t.Fatalf("peak concurrency %d", st.PeakConcurrent)
			}
			if c.faulty && (st.Drains == 0 || st.Readmissions == 0 || st.DrainMigrations == 0) {
				t.Fatalf("crash cell exercised no drain recovery: %+v", st)
			}
		})
	}
}

// TestSchedulerDeterminism: same config, two private envs, identical
// stats.
func TestSchedulerDeterminism(t *testing.T) {
	cfg := Config{
		Topo:   testTopo(),
		Policy: TierAware,
		Workload: Workload{
			Seed: 11, Window: 50 * sim.Millisecond, Load: 0.8, Intensity: 1,
		},
		Defrag: true,
	}
	a := runPool(t, cfg)
	b := runPool(t, cfg)
	if a != b {
		t.Fatalf("runs diverged:\n%+v\n%+v", a, b)
	}
}

// TestZeroChurnFrozen: the intensity-0 arm places once and never
// migrates, with or without the defragmenter.
func TestZeroChurnFrozen(t *testing.T) {
	base := Config{
		Topo:   testTopo(),
		Policy: BestFit,
		Workload: Workload{
			Seed: 3, Window: 50 * sim.Millisecond, Load: 0.75,
		},
	}
	off := runPool(t, base)
	on := base
	on.Defrag = true
	got := runPool(t, on)
	if got.Migrations != 0 {
		t.Fatalf("zero-churn defrag arm migrated %d times", got.Migrations)
	}
	if got != off {
		t.Fatalf("defrag changed the zero-churn run:\noff %+v\non  %+v", off, got)
	}
	if off.Blocked != 0 || off.Killed != 0 {
		t.Fatalf("zero-churn arm blocked %d / killed %d jobs", off.Blocked, off.Killed)
	}
}

// TestTierAwareGate: on a pool whose every server is too small for the
// big gangs, the tier-aware policy must still only accept spreads above
// each shape's efficiency floor — so its average efficiency (goodput per
// delivered GPU-second) beats first-fit's on the same schedule.
func TestTierAwareGate(t *testing.T) {
	cfg := Config{
		Topo: Topology{Rows: 2, RacksPerRow: 2, ServersPerRack: 4, GPUsPerServer: 4},
		Workload: Workload{
			Seed: 5, Window: 50 * sim.Millisecond, Load: 0.8, Intensity: 1,
		},
	}
	cfg.Policy = FirstFit
	ff := runPool(t, cfg)
	cfg.Policy = TierAware
	ta := runPool(t, cfg)
	if ta.Goodput <= 0 || ff.Goodput <= 0 {
		t.Fatalf("degenerate goodput: firstfit %g tieraware %g", ff.Goodput, ta.Goodput)
	}
	effFF := ff.GoodputGPUs * cfg.Workload.Window.Seconds()
	effTA := ta.GoodputGPUs * cfg.Workload.Window.Seconds()
	if effTA <= 0 || effFF <= 0 {
		t.Fatalf("no delivered GPU-seconds: firstfit %g tieraware %g", effFF, effTA)
	}
}

// TestServingReservation: the serving slice is placed through the serve
// placer, pinned ahead of batch placement, and reported with its slack.
func TestServingReservation(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	s, err := Start(env, Config{
		Topo:   testTopo(),
		Policy: BestFit,
		Workload: Workload{
			Seed: 1, Window: 10 * sim.Millisecond, Load: 0.5,
		},
		Serving: []serve.Tenant{
			{Name: "chat", Rate: 100, MeanPromptTokens: 32, MeanOutputTokens: 8,
				SLO: 25 * sim.Millisecond},
		},
		ServingGPUs: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	env.Run()
	st := s.Stats()
	if st.ServingReplicas != 4 {
		t.Fatalf("serving replicas %d, want 4", st.ServingReplicas)
	}
	if st.ServingSlackMean <= 0 {
		t.Fatalf("serving slack %v, want > 0 at row scale", st.ServingSlackMean)
	}
	if st.Goodput <= 0 {
		t.Fatalf("batch goodput %g alongside the reservation", st.Goodput)
	}
}

// TestEfficiencyTable pins the penalty-model pricing the policies gate
// on.
func TestEfficiencyTable(t *testing.T) {
	cases := []struct {
		shape Shape
		scale fabric.Scale
		want  float64
	}{
		{LammpsShape, fabric.NodeLocal, 1},
		{LammpsShape, fabric.RackScale, 0.955},
		{LammpsShape, fabric.RowScale, 0.813},
		{CosmoFlowShape, fabric.RowScale, 0.977},
		{CosmoFlowShape, fabric.ClusterScale, 0.930},
	}
	for _, c := range cases {
		got := EfficiencyAt(c.shape, c.scale)
		if math.Abs(got-c.want) > 0.005 {
			t.Errorf("EfficiencyAt(%v, %v) = %.3f, want ~%.3f", c.shape, c.scale, got, c.want)
		}
		if c.scale > fabric.NodeLocal && got >= 1 {
			t.Errorf("EfficiencyAt(%v, %v) = %g, spread must cost something", c.shape, c.scale, got)
		}
	}
}

// TestTopology pins the index arithmetic.
func TestTopology(t *testing.T) {
	topo := DefaultTopology()
	if topo.GPUs() != 8192 || topo.Servers() != 512 || topo.Racks() != 64 {
		t.Fatalf("default topology: %d GPUs, %d servers, %d racks", topo.GPUs(), topo.Servers(), topo.Racks())
	}
	if topo.RackOf(0) != 0 || topo.RackOf(8) != 1 || topo.RowOf(63) != 0 || topo.RowOf(64) != 1 {
		t.Fatal("rack/row indexing broken")
	}
	cases := []struct {
		a, b int
		want fabric.Scale
	}{
		{0, 0, fabric.NodeLocal},
		{0, 7, fabric.RackScale},
		{0, 8, fabric.RowScale},
		{0, 63, fabric.RowScale},
		{0, 64, fabric.ClusterScale},
	}
	for _, c := range cases {
		if got := topo.CrossingScale(c.a, c.b); got != c.want {
			t.Errorf("CrossingScale(%d, %d) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// The linear scans the free-count index replaced, kept as oracles: every
// indexed query must return exactly what its scan returns.

// oracleBestServer scans for the live server with the smallest free
// block that fits the gang, lowest index on ties, or -1.
func oracleBestServer(s *Scheduler, gang int) int {
	best, bestFree := -1, 0
	for sv, f := range s.free {
		if !s.live[sv] || f < gang {
			continue
		}
		if best < 0 || f < bestFree {
			best, bestFree = sv, f
		}
	}
	return best
}

// oracleFirstFit takes free GPUs in global server order until the gang is
// covered.
func oracleFirstFit(s *Scheduler, gang int) []slice {
	if s.totalFree < gang {
		return nil
	}
	var out []slice
	need := gang
	for sv := 0; sv < len(s.free) && need > 0; sv++ {
		if !s.live[sv] || s.free[sv] == 0 {
			continue
		}
		take := min(s.free[sv], need)
		out = append(out, slice{sv, take})
		need -= take
	}
	if need > 0 {
		return nil
	}
	return out
}

// oracleFillGroup sorts the group's free servers by descending free
// count, ascending index, and covers the gang in that order.
func oracleFillGroup(s *Scheduler, base, n, gang int) []slice {
	var order []int
	for sv := base; sv < base+n && sv < len(s.free); sv++ {
		if s.live[sv] && s.free[sv] > 0 {
			order = append(order, sv)
		}
	}
	slices.SortStableFunc(order, func(a, b int) int { return s.free[b] - s.free[a] })
	var out []slice
	need := gang
	for _, sv := range order {
		take := min(s.free[sv], need)
		out = append(out, slice{sv, take})
		if need -= take; need == 0 {
			return out
		}
	}
	return nil
}

// oraclePickVictim scans for the live, unpinned, movable server with the
// smallest nonzero occupancy, lowest index on ties, or -1.
func oraclePickVictim(s *Scheduler) int {
	best, bestOcc := -1, 0
	for sv := range s.free {
		if !s.live[sv] || s.pinned[sv] > 0 {
			continue
		}
		occ := s.topo.GPUsPerServer - s.free[sv]
		if occ <= 0 || (best >= 0 && occ >= bestOcc) {
			continue
		}
		if s.movable(sv) {
			best, bestOcc = sv, occ
		}
	}
	return best
}

// checkIndex audits the scheduler and compares every indexed placement
// query with its oracle.
func checkIndex(t *testing.T, s *Scheduler, step string) {
	t.Helper()
	if err := s.audit(); err != nil {
		t.Fatalf("after %s: %v", step, err)
	}
	topo, n := s.topo, len(s.free)
	g := topo.GPUsPerServer
	for gang := 0; gang <= g+1; gang++ {
		if got, want := s.bestServer(gang), oracleBestServer(s, gang); got != want {
			t.Fatalf("after %s: bestServer(%d) = %d, oracle %d", step, gang, got, want)
		}
	}
	same := func(query string, got, want []slice) {
		if (got == nil) != (want == nil) || !slices.Equal(got, want) {
			t.Fatalf("after %s: %s = %v, oracle %v", step, query, got, want)
		}
	}
	rowServers := topo.ServersPerRack * topo.RacksPerRow
	for _, gang := range []int{1, 2, 3, g, g + 1, 2*g + 1, s.totalFree, s.totalFree + 1} {
		if gang < 1 {
			continue // gangs are never empty
		}
		same(fmt.Sprintf("firstFit(%d)", gang), s.firstFit(gang), oracleFirstFit(s, gang))
		for r := 0; r < topo.Racks(); r++ {
			base := r * topo.ServersPerRack
			same(fmt.Sprintf("fillGroup(rack %d, %d)", r, gang),
				s.fillGroup(base, topo.ServersPerRack, gang), oracleFillGroup(s, base, topo.ServersPerRack, gang))
		}
		for w := 0; w < topo.Rows; w++ {
			same(fmt.Sprintf("fillGroup(row %d, %d)", w, gang),
				s.fillGroup(w*rowServers, rowServers, gang), oracleFillGroup(s, w*rowServers, rowServers, gang))
		}
		same(fmt.Sprintf("fillGroup(pool, %d)", gang), s.fillGroup(0, n, gang), oracleFillGroup(s, 0, n, gang))
	}
	if got, want := s.pickVictim(), oraclePickVictim(s); got != want {
		t.Fatalf("after %s: pickVictim() = %d, oracle %d", step, got, want)
	}
}

// FuzzPlacementIndex drives a scheduler through a fuzzed sequence of
// claims (arrivals and queue retries), unclaims (completions), drains,
// readmissions and defrag sweeps on a fuzzed topology, and after every
// step checks the audit and every indexed query against its oracle.
//
// Input: four topology bytes (rows 1–3, racks per row 1–4, servers per
// rack 1–24, GPUs per server 1–16; up to 288 servers, so sets span
// several words and most counts are not a multiple of 64), one byte for
// policy, serving reservation and load, then (op, arg) byte pairs.
func FuzzPlacementIndex(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 2, 0, 3, 0, 4, 0, 1, 0})
	f.Add([]byte{2, 3, 23, 15, 4, 0, 9, 2, 5, 3, 17, 3, 200, 5, 0, 2, 1, 4, 0, 4, 1, 6, 0, 0, 7, 5, 0})
	f.Add([]byte{1, 3, 15, 3, 5, 3, 40, 3, 41, 2, 0, 2, 3, 6, 0, 5, 0, 4, 0, 0, 0, 3, 90, 4, 2})
	f.Add([]byte{0, 2, 22, 7, 8, 1, 0, 2, 7, 2, 8, 3, 128, 3, 129, 0, 0, 5, 0, 6, 0, 4, 0, 4, 1})
	// Blocks a gang, drains and readmits, then commits a defrag sweep.
	f.Add([]byte("01812B0B9101010C0A0Y00"))
	// Drains a server, then places a queued gang on retry.
	f.Add([]byte("01010B010C000"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		topo := Topology{
			Rows:           1 + int(data[0])%3,
			RacksPerRow:    1 + int(data[1])%4,
			ServersPerRack: 1 + int(data[2])%24,
			GPUsPerServer:  1 + int(data[3])%16,
		}
		cfg := Config{
			Topo:   topo,
			Policy: Policy(data[4] % 3),
			Workload: Workload{
				Seed: int64(data[4]), Window: 20 * sim.Millisecond,
				Load: 0.1 + 0.1*float64(data[4]/6%9), Intensity: 1,
			},
		}
		if data[4]/3%2 == 1 && topo.GPUs() > 8 {
			cfg.Serving = pinTenants
			cfg.ServingGPUs = 4
		}
		env := sim.NewEnv()
		defer env.Close()
		s, err := Start(env, cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkIndex(t, s, "start")
		ops, now := data[5:], sim.Time(0)
		for i := 0; i+1 < len(ops) && i < 400; i += 2 {
			op, arg := ops[i]%7, int(ops[i+1])
			var step string
			switch op {
			case 0, 1:
				if s.nextArrival < len(s.jobs) {
					now = max(now, s.jobs[s.nextArrival].Arrival)
				}
				step = fmt.Sprintf("admit at %v", now)
				s.admitArrivals(now)
			case 2:
				var placed []int
				for id, a := range s.allocs {
					if a.state == allocPlaced {
						placed = append(placed, id)
					}
				}
				id := pick(placed, arg)
				step = fmt.Sprintf("complete job %d", id)
				if id >= 0 {
					s.complete(id, now)
				}
			case 3:
				sv := arg * len(s.free) / 256
				step = fmt.Sprintf("drain server %d", sv)
				s.drainServer(sv, now)
			case 4:
				var drained []int
				for sv, live := range s.live {
					if !live {
						drained = append(drained, sv)
					}
				}
				sv := pick(drained, arg)
				step = fmt.Sprintf("readmit server %d", sv)
				s.readmitServer(sv)
			case 5:
				step = "defrag sweep"
				s.sweep(now)
			case 6:
				step = "queue retry"
				s.tryQueue(now)
			}
			checkIndex(t, s, step)
		}
	})
}

// pick returns ids[k mod len(ids)], or -1 when ids is empty.
func pick(ids []int, k int) int {
	if len(ids) == 0 {
		return -1
	}
	return ids[k%len(ids)]
}
