package health

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/pool"
	"repro/internal/remoting"
	"repro/internal/sim"
)

func TestDetectorPhi(t *testing.T) {
	d := NewDetector(8, 100*sim.Microsecond)
	if phi := d.Phi(sim.Time(0)); phi != 0 {
		t.Errorf("phi before any beat = %g, want 0", phi)
	}
	// Regular 100 µs beats.
	at := sim.Time(0)
	for i := 0; i < 12; i++ {
		d.Observe(at)
		at = at.Add(100 * sim.Microsecond)
	}
	if m := d.Mean(); math.Abs(float64(m)-float64(100*sim.Microsecond)) > 1e-12 {
		t.Errorf("windowed mean = %v, want 100µs", m)
	}
	// φ = Δ/(mean·ln10): one mean of silence is φ≈0.434, ten means φ≈4.34.
	last, _ := d.Last()
	phi1 := d.Phi(last.Add(100 * sim.Microsecond))
	if math.Abs(phi1-1/math.Ln10) > 1e-9 {
		t.Errorf("phi at one mean = %g, want %g", phi1, 1/math.Ln10)
	}
	phi10 := d.Phi(last.Add(1000 * sim.Microsecond))
	if math.Abs(phi10-10/math.Ln10) > 1e-9 {
		t.Errorf("phi at ten means = %g, want %g", phi10, 10/math.Ln10)
	}
	if phi10 <= phi1 {
		t.Error("phi is not increasing in the silence length")
	}
	// Duplicate and out-of-order observations are ignored.
	d.Observe(last)
	d.Observe(last.Add(-50 * sim.Microsecond))
	if m := d.Mean(); math.Abs(float64(m)-float64(100*sim.Microsecond)) > 1e-12 {
		t.Errorf("mean perturbed by non-monotonic observations: %v", m)
	}
	// Reset falls back to the prior and forgets the clock.
	d.Reset()
	if _, ok := d.Last(); ok {
		t.Error("reset detector still remembers a beat")
	}
	if d.Phi(at) != 0 {
		t.Error("reset detector is suspicious with no beats")
	}
	if d.Mean() != 100*sim.Microsecond {
		t.Errorf("reset detector mean = %v, want the prior", d.Mean())
	}
}

func TestDetectorWindowSlides(t *testing.T) {
	d := NewDetector(4, sim.Millisecond)
	at := sim.Time(0)
	d.Observe(at)
	// Four slow beats, then four fast ones: the window must forget the
	// slow regime entirely.
	for i := 0; i < 4; i++ {
		at = at.Add(sim.Millisecond)
		d.Observe(at)
	}
	for i := 0; i < 4; i++ {
		at = at.Add(100 * sim.Microsecond)
		d.Observe(at)
	}
	if m := d.Mean(); math.Abs(float64(m)-float64(100*sim.Microsecond)) > 1e-12 {
		t.Errorf("mean after window slide = %v, want 100µs", m)
	}
}

func testPath(t *testing.T) fabric.Path {
	t.Helper()
	path, err := fabric.PathForSlack(10 * sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	return path
}

// testPool builds a Resilient pool under the given fault schedule, with
// no workload attached — the control plane is the only actor.
func testPool(t *testing.T, env *sim.Env, fc faults.Config, standbys int) *remoting.Resilient {
	t.Helper()
	r, err := remoting.NewResilient(env, gpu.A100(), remoting.ResilientConfig{
		Config:   remoting.Config{Path: testPath(t), Seed: fc.Seed},
		Faults:   fc,
		Standbys: standbys, DisableLocalFallback: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestConfigValidate(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	pool := testPool(t, env, faults.Config{Seed: 1}, 1)
	bad := []Config{
		{},                                   // no horizon
		{Horizon: sim.Second, Interval: -1},  // negative interval survives defaults
		{Horizon: sim.Second, SuspectPhi: 5}, // suspect above default dead
		{Horizon: sim.Second, RecoverBeats: -1},
		{Horizon: sim.Second, DropProbability: 1},
		{Horizon: sim.Duration(math.NaN())},                        // the procs would never end
		{Horizon: sim.Duration(math.Inf(1))},                       // the procs would never end
		{Horizon: sim.Duration(math.Inf(-1))},                      // negative
		{Horizon: sim.Second, Interval: sim.Duration(math.NaN())},  // NaN wake-up time
		{Horizon: sim.Second, Interval: sim.Duration(math.Inf(1))}, // infinite period
		{Horizon: sim.Second, JitterFrac: 1},                       // zero-length periods
		{Horizon: sim.Second, JitterFrac: 1.5},                     // negative periods
		{Horizon: sim.Second, JitterFrac: math.NaN()},              // would turn jitter off
		{Horizon: sim.Second, DropProbability: math.NaN()},
		{Horizon: sim.Second, SuspectPhi: math.NaN()},
	}
	for i, cfg := range bad {
		if _, err := Start(env, pool, pool.Injector(), cfg); err == nil {
			t.Errorf("config %d: invalid config accepted", i)
		}
	}
}

func TestZeroFaultNoOp(t *testing.T) {
	// With no fault schedule the control plane observes steady beats and
	// takes no action at all: no suspicion, no drain, no registry churn.
	env := sim.NewEnv()
	defer env.Close()
	pool := testPool(t, env, faults.Config{Seed: 7}, 1)
	c, err := Start(env, pool, pool.Injector(), Config{Seed: 7, Horizon: 50 * sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	env.Run()
	st := c.Stats()
	if st.Beats == 0 {
		t.Fatal("no heartbeats delivered")
	}
	if st.DroppedBeats != 0 || st.Suspicions != 0 || st.Drains != 0 || st.Deaths != 0 {
		t.Errorf("fault-free run took control action: %+v", st)
	}
	if len(c.Registry().Log()) != 0 {
		t.Errorf("fault-free run logged %d transitions", len(c.Registry().Log()))
	}
	if c.Degraded() {
		t.Error("fault-free pool reports degraded")
	}
	for i := 0; i < pool.Servers(); i++ {
		if c.Registry().StateOf(i) != Healthy || !pool.Live(i) {
			t.Errorf("server %d: state %v live %v after fault-free run",
				i, c.Registry().StateOf(i), pool.Live(i))
		}
	}
}

// churnConfig is a schedule with recurring 5 ms outages every ~20 ms on
// each of the pool's servers.
func churnConfig(seed int64) faults.Config {
	return faults.Config{Seed: seed, CrashAfter: 20 * sim.Millisecond, CrashFor: 5 * sim.Millisecond}
}

func TestDetectsDrainsAndReadmits(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	pool := testPool(t, env, churnConfig(11), 1)
	c, err := Start(env, pool, pool.Injector(), Config{Seed: 11, Horizon: 100 * sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	env.Run()
	st := c.Stats()
	if st.Suspicions == 0 || st.Deaths == 0 || st.Recoveries == 0 {
		t.Fatalf("churn run saw no full detect/recover cycle: %+v", st)
	}
	if st.DetectionCount == 0 {
		t.Fatal("no true-positive detections scored")
	}
	// φ reaches the suspect threshold after ~1.5·mean·ln10 ≈ 0.9 ms of
	// silence; with evaluator granularity that bounds detection latency
	// well under 2.5 ms.
	if st.MeanDetection() <= 0 || st.MeanDetection() > 2500*sim.Microsecond {
		t.Errorf("mean detection latency %v outside (0, 2.5ms]", st.MeanDetection())
	}
	if st.DetectionMax > 5*sim.Millisecond {
		t.Errorf("max detection latency %v exceeds the outage length", st.DetectionMax)
	}
	if st.Readmissions == 0 {
		t.Error("no server was readmitted after recovery")
	}
	ps := pool.Stats()
	if ps.Migrations == 0 {
		t.Error("no drain migration rode the DMA-replay path")
	}
	// The log must contain a full Healthy→…→Healthy cycle for some server.
	var cycled bool
	for _, tr := range c.Registry().Log() {
		if tr.To == Healthy {
			cycled = true
			break
		}
	}
	if !cycled {
		t.Error("no server completed a recovery cycle back to Healthy")
	}
}

func TestHeartbeatLossTolerance(t *testing.T) {
	// A lossy link drops beats but the detector's windowed mean absorbs
	// the gaps: with p=0.2 a false suspicion needs ~3 consecutive losses
	// right when the window is tight.
	env := sim.NewEnv()
	defer env.Close()
	pool := testPool(t, env, faults.Config{Seed: 3, DropProbability: 0.2}, 1)
	c, err := Start(env, pool, pool.Injector(), Config{Seed: 3, Horizon: 50 * sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	env.Run()
	st := c.Stats()
	if st.DroppedBeats == 0 {
		t.Fatal("lossy run dropped no beats (drop probability not inherited?)")
	}
	if st.Beats == 0 {
		t.Fatal("lossy run delivered no beats")
	}
	if st.Suspicions != st.FalseSuspicions {
		t.Errorf("suspicions %d != false suspicions %d with no crash schedule",
			st.Suspicions, st.FalseSuspicions)
	}
}

func TestControllerDeterminism(t *testing.T) {
	run := func() (Stats, []Transition) {
		env := sim.NewEnv()
		defer env.Close()
		pool := testPool(t, env, churnConfig(19), 1)
		c, err := Start(env, pool, pool.Injector(), Config{Seed: 19, Horizon: 80 * sim.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		env.Run()
		return c.Stats(), c.Registry().Log()
	}
	s1, l1 := run()
	s2, l2 := run()
	if s1 != s2 {
		t.Errorf("stats differ across identical runs:\n%+v\n%+v", s1, s2)
	}
	if len(l1) != len(l2) {
		t.Fatalf("transition logs differ in length: %d vs %d", len(l1), len(l2))
	}
	for i := range l1 {
		if l1[i] != l2[i] {
			t.Errorf("transition %d differs: %+v vs %+v", i, l1[i], l2[i])
		}
	}
	if len(l1) == 0 {
		t.Error("churn run produced no transitions at all")
	}
}

// pinCell is one pinned control-plane run: its Stats and a digest of its
// full transition log.
type pinCell struct {
	stats  Stats
	trans  int
	digest uint64
}

// logDigest is the FNV-1a hash of every transition's fields, times taken
// bit for bit.
func logDigest(log []Transition) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, tr := range log {
		binary.LittleEndian.PutUint64(b[:], uint64(tr.Server))
		h.Write(b[:])
		h.Write([]byte{byte(tr.From), byte(tr.To)})
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(float64(tr.At)))
		h.Write(b[:])
	}
	return h.Sum64()
}

// runPinnedResilient is TestControllerDeterminism's churn run over a
// remoting.Resilient pool.
func runPinnedResilient(t *testing.T) pinCell {
	return runPinnedFaults(t, churnConfig(19))
}

// runPinnedStalls adds link flaps, server stalls and message loss to the
// churn, so beats are lost on a down link, wait out stalls and flip the
// loss coin.
func runPinnedStalls(t *testing.T) pinCell {
	fc := churnConfig(23)
	fc.DropProbability = 0.05
	fc.FlapEvery, fc.FlapOutage = 10*sim.Millisecond, 300*sim.Microsecond
	fc.StallEvery, fc.StallFor = 5*sim.Millisecond, 700*sim.Microsecond
	return runPinnedFaults(t, fc)
}

// runPinnedFaults monitors a one-standby Resilient pool under fc for 80 ms.
func runPinnedFaults(t *testing.T, fc faults.Config) pinCell {
	env := sim.NewEnv()
	defer env.Close()
	pl := testPool(t, env, fc, 1)
	c, err := Start(env, pl, pl.Injector(), Config{Seed: fc.Seed, Horizon: 80 * sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	env.Run()
	return pinCell{c.Stats(), len(c.Registry().Log()), logDigest(c.Registry().Log())}
}

// runPinnedPool is a crash cell over a pool.Scheduler: a 512-GPU pool
// with defragmentation on, 100 ms crash outages and 1 ms beats over a
// rack-scale path, the shape of the pool experiment's failure cells.
func runPinnedPool(t *testing.T) pinCell {
	env := sim.NewEnv()
	defer env.Close()
	window := 500 * sim.Millisecond
	sched, err := pool.Start(env, pool.Config{
		Topo:     pool.Topology{Rows: 2, RacksPerRow: 4, ServersPerRack: 8, GPUsPerServer: 8},
		Policy:   pool.TierAware,
		Workload: pool.Workload{Seed: 9002, Window: window, Load: 0.95, Intensity: 0.5},
		Defrag:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faults.NewInjector(faults.Config{Seed: 9101, CrashAfter: 5 * sim.Second, CrashFor: 100 * sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Start(env, sched, inj, Config{
		Seed:     9201,
		Interval: sim.Millisecond,
		Horizon:  2 * window,
		Path:     fabric.Preset(fabric.RackScale, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	env.Run()
	return pinCell{c.Stats(), len(c.Registry().Log()), logDigest(c.Registry().Log())}
}

// TestControllerPinned pins three control-plane runs field by field:
// TestControllerDeterminism only compares a run with itself, so it cannot
// see a beat, a loss coin or an evaluator tick move to another (time,
// seq) slot. The pins change only with an intended behaviour change.
func TestControllerPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(*testing.T) pinCell
		want pinCell
	}{
		{"resilient", runPinnedResilient, pinCell{
			stats: Stats{Beats: 520, DroppedBeats: 120, Suspicions: 6, Drains: 5, Deaths: 3,
				Recoveries: 6, Readmissions: 5, DetectionCount: 6,
				DetectionTotal: 0.009552453013640067, DetectionMax: 0.004122735294280727},
			trans: 26, digest: 0xd489e61e7bcca438,
		}},
		{"stalls", runPinnedStalls, pinCell{
			stats: Stats{Beats: 512, DroppedBeats: 75, Suspicions: 7, FalseSuspicions: 6, Drains: 6,
				Deaths: 2, Recoveries: 8, Readmissions: 6, DetectionCount: 1,
				DetectionTotal: 0.00404180769739966, DetectionMax: 0.00404180769739966},
			trans: 30, digest: 0x5217c7af51babe5e,
		}},
		{"pool", runPinnedPool, pinCell{
			stats: Stats{Beats: 63231, DroppedBeats: 731, Suspicions: 8, Drains: 8, Deaths: 8,
				Recoveries: 6, Readmissions: 6, DetectionCount: 8,
				DetectionTotal: 0.026914971933818477, DetectionMax: 0.0037946576121096753},
			trans: 36, digest: 0x29202758d903d5b9,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.run(t); got != tc.want {
				t.Errorf("got  %+v\nwant %+v", got, tc.want)
			}
		})
	}
}
