package main

import (
	"fmt"
	"time"

	"repro/internal/cosmoflow"
	"repro/internal/cuda"
	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/health"
	"repro/internal/lammps"
	"repro/internal/model"
	"repro/internal/pool"
	"repro/internal/proxy"
	"repro/internal/remoting"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/slack"
	"repro/internal/trace"
)

// A cell is one unit of simulated work: it makes its calls through the
// meter and returns the canonical text of its simulated results, which
// the checks digest and compare.
type cell struct {
	name string
	run  func(m *meter) (string, error)
}

// A workload is a fixed list of cells run back to back. cells is called
// once per pass, so cells that feed each other (trace → profile →
// predict) share state only within one pass.
type workload struct {
	name   string
	sizes  string
	warmup cell
	cells  func(seed int64) []cell
}

// defaultSeed is the seed whose cell digests are recorded in golden.json.
const defaultSeed int64 = 1

// seedStream hands out the seeds of a pass's random inputs (job
// schedules, request arrivals, fault and heartbeat schedules), drawn from
// the benchmark seed with splitmix64, one per use in cell order. Every
// cell gets its own draws, so a pass averages over many independent
// schedules and its cost moves little from seed to seed.
type seedStream struct{ state uint64 }

func newSeedStream(seed int64) *seedStream { return &seedStream{state: uint64(seed)} }

func (s *seedStream) next() int64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64((z ^ z>>31) >> 1)
}

func workloads() []workload {
	return []workload{lammpsStrong(), slackPredict(), poolChurn(), serveChurn()}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// --- lammps-strong ---

var (
	strongBoxes = []int{60, 120}
	strongRanks = []int{1, 4, 8, 16, 24}
)

const strongSteps = 1500

func lammpsStrong() workload {
	return workload{
		name: "lammps-strong",
		sizes: fmt.Sprintf("LAMMPS perf mode, boxes %v x MPI ranks %v, %d steps, zero slack",
			strongBoxes, strongRanks, strongSteps),
		warmup: lammpsCell(20, 2, 100),
		cells: func(int64) []cell {
			var cs []cell
			for _, box := range strongBoxes {
				for _, p := range strongRanks {
					cs = append(cs, lammpsCell(box, p, strongSteps))
				}
			}
			return cs
		},
	}
}

func lammpsCell(box, procs, steps int) cell {
	return cell{
		name: fmt.Sprintf("box%d-p%d", box, procs),
		run: func(m *meter) (string, error) {
			r, _, err := runLAMMPS(m, lammps.PerfConfig{BoxSize: box, Procs: procs, Steps: steps})
			if err != nil {
				return "", err
			}
			return canon(r), nil
		},
	}
}

// runLAMMPS times one LAMMPS run and records its layer counts.
func runLAMMPS(m *meter, cfg lammps.PerfConfig) (lammps.PerfResult, time.Duration, error) {
	var r lammps.PerfResult
	d, err := m.call("lammps.RunPerf", func() (err error) {
		r, err = lammps.RunPerf(cfg)
		return err
	})
	if err != nil {
		return r, d, err
	}
	m.add("lammps.rank_steps", float64(r.Procs*r.Steps))
	m.add("gpu.ctx_switches", float64(r.CtxSwitches))
	return r, d, nil
}

// --- slack-predict ---

var (
	slackSizes   = []int{1 << 9, 1 << 11, 1 << 13}
	slackThreads = []int{1, 4, 8}
	// injectSlacks are the direct-injection validation points: the
	// paper's headline row-scale figure and the far end of its sweep.
	injectSlacks = []sim.Duration{100 * sim.Microsecond, 10 * sim.Millisecond}
)

const (
	slackProxyIters = 1000
	slackBox        = 60
	slackRanks      = 8
	slackSteps      = 300
	slackEpochs     = 1
	slackSamples    = 512
	// cosmoParallelism is the paper's pessimistic equivalent submitter
	// count for CosmoFlow.
	cosmoParallelism = 4
	// headlineBudget is the paper's verdict: at 100 µs both applications'
	// pessimistic penalty stays below 1%.
	headlineBudget = 0.01
)

func slackPredict() workload {
	return workload{
		name: "slack-predict",
		sizes: fmt.Sprintf("traces: LAMMPS box %d x %d ranks x %d steps, CosmoFlow %d epoch x %d samples; "+
			"proxy sizes %v x threads %v x slacks %v, %d iters; injection at %v",
			slackBox, slackRanks, slackSteps, slackEpochs, slackSamples,
			slackSizes, slackThreads, model.PaperSlacks(), slackProxyIters, injectSlacks),
		warmup: cell{name: "warmup", run: func(m *meter) (string, error) {
			var pts []proxy.SweepPoint
			_, err := m.call("proxy.SweepParallel", func() (err error) {
				pts, err = proxy.SweepParallel([]int{1 << 9}, []int{1}, injectSlacks[:1], 20, 1)
				return err
			})
			if err != nil {
				return "", err
			}
			r, _, err := runLAMMPS(m, lammps.PerfConfig{BoxSize: 20, Procs: 2, Steps: 20, Record: true})
			if err != nil {
				return "", err
			}
			return canon(pts) + canon(traceSummary(r.Trace)), nil
		}},
		cells: func(int64) []cell { return (&slackPass{}).cells() },
	}
}

// slackPass carries one pass's pipeline state from cell to cell: the
// recorded traces and baselines, the calibrated surface, and the
// profiles the predictions and injections are scored against.
type slackPass struct {
	lbase   lammps.PerfResult
	cbase   cosmoflow.PerfResult
	surface *model.Surface
	lapp    model.AppProfile
	capp    model.AppProfile
}

func (s *slackPass) lammpsConfig() lammps.PerfConfig {
	return lammps.PerfConfig{BoxSize: slackBox, Procs: slackRanks, Steps: slackSteps}
}

func (s *slackPass) cosmoConfig() cosmoflow.PerfConfig {
	return cosmoflow.PerfConfig{Epochs: slackEpochs, TrainSamples: slackSamples, ValSamples: slackSamples / 2}
}

func (s *slackPass) cells() []cell {
	return []cell{
		{"trace-lammps", s.traceLAMMPS},
		{"trace-cosmoflow", s.traceCosmoFlow},
		{"calibrate", s.calibrate},
		{"predict-lammps", func(m *meter) (string, error) {
			return s.predict(m, s.lbase.Trace, slackRanks, &s.lapp)
		}},
		{"predict-cosmoflow", func(m *meter) (string, error) {
			return s.predict(m, s.cbase.Trace, cosmoParallelism, &s.capp)
		}},
		{"inject-lammps", s.injectLAMMPS},
		{"inject-cosmoflow", s.injectCosmoFlow},
	}
}

func (s *slackPass) traceLAMMPS(m *meter) (string, error) {
	cfg := s.lammpsConfig()
	cfg.Record = true
	r, d, err := runLAMMPS(m, cfg)
	if err != nil {
		return "", err
	}
	m.add("trace.collect_s", d.Seconds())
	s.lbase = r
	countTrace(m, r.Trace)
	r.Trace = nil // compared through its summary
	return canon(r) + canon(traceSummary(s.lbase.Trace)), nil
}

func (s *slackPass) traceCosmoFlow(m *meter) (string, error) {
	cfg := s.cosmoConfig()
	cfg.Record = true
	var r cosmoflow.PerfResult
	d, err := m.call("cosmoflow.RunPerf", func() (err error) {
		r, err = cosmoflow.RunPerf(cfg)
		return err
	})
	if err != nil {
		return "", err
	}
	m.add("trace.collect_s", d.Seconds())
	s.cbase = r
	countTrace(m, r.Trace)
	r.Trace = nil // compared through its summary
	return canon(r) + canon(traceSummary(s.cbase.Trace)), nil
}

// countTrace records the recorded trace's work counts, API calls split
// by call class.
func countTrace(m *meter, tr *trace.Trace) {
	m.add("trace.calls", float64(len(tr.Calls)))
	m.add("trace.kernels", float64(len(tr.Kernels)))
	m.add("trace.copies", float64(len(tr.Copies)))
	for _, c := range tr.Calls {
		m.add("cuda.calls."+c.Class.String(), 1)
	}
}

// traceSummary is the part of a recording the checks compare: its
// counts and the simulated times it spans.
func traceSummary(tr *trace.Trace) map[string]float64 {
	if tr == nil {
		return nil
	}
	return map[string]float64{
		"calls":   float64(len(tr.Calls)),
		"kernels": float64(len(tr.Kernels)),
		"copies":  float64(len(tr.Copies)),
		"runtime": float64(tr.Runtime()),
		"kernel":  float64(tr.KernelTime()),
		"memcpy":  float64(tr.MemcpyTime()),
	}
}

func (s *slackPass) calibrate(m *meter) (string, error) {
	var pts []proxy.SweepPoint
	_, err := m.call("proxy.SweepParallel", func() (err error) {
		pts, err = proxy.SweepParallel(slackSizes, slackThreads, model.PaperSlacks(), slackProxyIters, 1)
		return err
	})
	if err != nil {
		return "", err
	}
	// Each (size, threads) combination also runs one zero-slack baseline.
	perCombo := float64(len(model.PaperSlacks())+1) / float64(len(model.PaperSlacks()))
	for _, pt := range pts {
		m.add("proxy.points", 1)
		m.add("proxy.iters", perCombo*float64(pt.Result.Iters*pt.Threads))
	}
	_, err = m.call("model.BuildSurface", func() (err error) {
		s.surface, err = model.BuildSurface(pts)
		return err
	})
	if err != nil {
		return "", err
	}
	return canon(pts), nil
}

// predict profiles one application from its trace and predicts its
// penalty over the paper's slack sweep; it fails the cell when the
// paper's headline verdict does not hold.
func (s *slackPass) predict(m *meter, tr *trace.Trace, par int, app *model.AppProfile) (string, error) {
	if tr == nil || s.surface == nil {
		return "", fmt.Errorf("predict: trace or surface missing")
	}
	_, _ = m.call("model.ProfileFromTrace", func() error {
		*app = model.ProfileFromTrace(tr, par)
		return nil
	})
	var preds []model.Prediction
	_, err := m.call("model.Surface.PredictSweep", func() (err error) {
		preds, err = s.surface.PredictSweep(*app, model.PaperSlacks())
		return err
	})
	if err != nil {
		return "", err
	}
	for _, p := range preds {
		if p.Slack == 100*sim.Microsecond && !(p.Upper < headlineBudget) {
			return "", fmt.Errorf("%w: %s pessimistic penalty %.4f at 100µs is not below %.2f",
				errCheck, tr.Label, p.Upper, headlineBudget)
		}
	}
	return canon(preds), nil
}

// injection is one direct-injection validation point: the Equation-1
// corrected penalty measured with slack injected into the application,
// beside the model's prediction for it.
type injection struct {
	Slack        sim.Duration
	Runtime      sim.Duration
	DelayedCalls int64
	Measured     float64
	Lower, Upper float64
}

func (s *slackPass) injectLAMMPS(m *meter) (string, error) {
	var out []injection
	for _, sl := range injectSlacks {
		cfg := s.lammpsConfig()
		cfg.Slack = sl
		r, d, err := runLAMMPS(m, cfg)
		if err != nil {
			return "", err
		}
		m.add("slack.inject_s", d.Seconds())
		inj, err := s.score(m, s.lapp, sl, r.Runtime, s.lbase.Runtime, r.DelayedCalls, r.DelayedCalls/int64(r.Procs))
		if err != nil {
			return "", err
		}
		out = append(out, inj)
	}
	return canon(out), nil
}

func (s *slackPass) injectCosmoFlow(m *meter) (string, error) {
	var out []injection
	for _, sl := range injectSlacks {
		cfg := s.cosmoConfig()
		cfg.Slack = sl
		var r cosmoflow.PerfResult
		d, err := m.call("cosmoflow.RunPerf", func() (err error) {
			r, err = cosmoflow.RunPerf(cfg)
			return err
		})
		if err != nil {
			return "", err
		}
		m.add("slack.inject_s", d.Seconds())
		inj, err := s.score(m, s.capp, sl, r.Runtime, s.cbase.Runtime, r.DelayedCalls, r.DelayedCalls)
		if err != nil {
			return "", err
		}
		out = append(out, inj)
	}
	return canon(out), nil
}

// score applies Equation 1 to an injected run: the delay on one serial
// path (serialCalls × slack) comes off the runtime, and what remains
// over the baseline is the starvation penalty the model predicts.
func (s *slackPass) score(m *meter, app model.AppProfile, sl sim.Duration, runtime, base sim.Duration,
	delayed, serialCalls int64) (injection, error) {
	if s.surface == nil || base <= 0 {
		return injection{}, fmt.Errorf("inject: surface or baseline missing")
	}
	m.add("slack.delayed_calls", float64(delayed))
	measured := float64(model.NoSlackTime(runtime, serialCalls, sl))/float64(base) - 1
	if measured < 0 {
		measured = 0
	}
	pred, err := s.surface.Predict(app, sl)
	if err != nil {
		return injection{}, err
	}
	return injection{Slack: sl, Runtime: runtime, DelayedCalls: delayed,
		Measured: measured, Lower: pred.Lower, Upper: pred.Upper}, nil
}

// --- pool-churn ---

var poolChurns = []float64{0, 0.5, 1}

const (
	poolLoad        = 0.95
	poolServingGPUs = 16
	poolFaultOutage = 100 * sim.Millisecond
	poolFaultGap    = 5 * sim.Second
	// poolWindow is the quick-mode window; poolReplicas repeats the sweep
	// with fresh draws. Over 2 s windows, a few job schedules per seed
	// build queues that cost a cell two to three times its usual host
	// time, which made the pass cost swing by a quarter between seeds.
	poolWindow   = 500 * sim.Millisecond
	poolReplicas = 4
)

func poolChurn() workload {
	return workload{
		name: "pool-churn",
		sizes: fmt.Sprintf("%d replicas of: %d-GPU pool, policies first-fit/best-fit/tier-aware x churn %v x "+
			"defrag off/on, + 2 crash cells with health on a %d-GPU pool; load %.2f, %v window",
			poolReplicas, pool.DefaultTopology().GPUs(), poolChurns, poolFaultTopology().GPUs(), poolLoad, poolWindow),
		warmup: poolCell("warmup", poolFaultTopology(), pool.TierAware, 1, false, false,
			100*sim.Millisecond, 1, 0, 0),
		cells: func(seed int64) []cell {
			seeds := newSeedStream(seed)
			var cs []cell
			topo := pool.DefaultTopology()
			for r := 0; r < poolReplicas; r++ {
				for pol := pool.FirstFit; pol <= pool.TierAware; pol++ {
					for _, churn := range poolChurns {
						for _, defrag := range []bool{false, true} {
							name := fmt.Sprintf("r%d-%v-churn%g-defrag%t", r, pol, churn, defrag)
							cs = append(cs, poolCell(name, topo, pol, churn, defrag, false, poolWindow,
								seeds.next(), 0, 0))
						}
					}
				}
				for _, defrag := range []bool{false, true} {
					name := fmt.Sprintf("r%d-crash-tier-aware-churn0.5-defrag%t", r, defrag)
					cs = append(cs, poolCell(name, poolFaultTopology(), pool.TierAware, 0.5, defrag, true, poolWindow,
						seeds.next(), seeds.next(), seeds.next()))
				}
			}
			return cs
		},
	}
}

// poolFaultTopology is the crash cells' 512-GPU pool.
func poolFaultTopology() pool.Topology {
	return pool.Topology{Rows: 2, RacksPerRow: 4, ServersPerRack: 8, GPUsPerServer: 8}
}

// servingTenants is the serving experiments' reference tenant mix at one
// load multiplier.
func servingTenants(load float64) []serve.Tenant {
	return []serve.Tenant{
		{Name: "chat", Rate: 100 * load, MeanPromptTokens: 32, MeanOutputTokens: 8,
			SLO: 25 * sim.Millisecond},
		{Name: "batchapi", Rate: 60 * load, MeanPromptTokens: 64, MeanOutputTokens: 12,
			SLO: 200 * sim.Millisecond},
	}
}

// poolResult is what a pool cell's checks compare.
type poolResult struct {
	Pool   pool.Stats
	Health health.Stats
}

func poolCell(name string, topo pool.Topology, pol pool.Policy, churn float64, defrag, crash bool,
	window sim.Duration, seed, faultSeed, healthSeed int64) cell {
	return cell{name: name, run: func(m *meter) (string, error) {
		env := sim.NewEnv()
		defer closeEnv(m, env)
		var sched *pool.Scheduler
		err := m.setup("pool.Start", func() (err error) {
			sched, err = pool.Start(env, pool.Config{
				Topo:   topo,
				Policy: pol,
				Workload: pool.Workload{
					Seed: seed, Window: window, Load: poolLoad, Intensity: churn,
				},
				Defrag:      defrag,
				Serving:     servingTenants(1),
				ServingGPUs: poolServingGPUs,
			})
			return err
		})
		if err != nil {
			return "", err
		}
		var ctl *health.Controller
		if crash {
			var inj *faults.Injector
			err := m.setup("faults.NewInjector", func() (err error) {
				inj, err = faults.NewInjector(faults.Config{
					Seed: faultSeed, CrashAfter: poolFaultGap, CrashFor: poolFaultOutage,
				})
				return err
			})
			if err != nil {
				return "", err
			}
			err = m.setup("health.Start", func() (err error) {
				ctl, err = health.Start(env, sched, inj, health.Config{
					Seed: healthSeed, Interval: sim.Millisecond, Horizon: 2 * window,
					Path: fabric.Preset(fabric.RackScale, 0),
				})
				return err
			})
			if err != nil {
				return "", err
			}
		}
		d := runEnv(m, env)
		m.add("pool.run_s", d.Seconds())
		res := poolResult{Pool: sched.Stats()}
		if ctl != nil {
			res.Health = ctl.Stats()
			countHealth(m, res.Health)
		}
		st := res.Pool
		m.add("pool.jobs", float64(st.Jobs))
		m.add("pool.placed", float64(st.Placed))
		m.add("pool.blocked", float64(st.Blocked))
		m.add("pool.migrations", float64(st.Migrations))
		m.add("pool.drain_migrations", float64(st.DrainMigrations))
		if err := checkPool(st); err != nil {
			return "", err
		}
		return canon(res), nil
	}}
}

// checkPool is the job conservation law. Once the run drains, nothing is
// queued: jobs still waiting are counted as killed. Without drains every
// job was placed or killed, exactly once. With drains, Killed also holds
// placed jobs that could not be re-placed, so only the bounds remain.
func checkPool(st pool.Stats) error {
	switch {
	case st.Placed < 0 || st.Killed < 0 || st.Placed > st.Jobs:
		return fmt.Errorf("%w: pool placed %d killed %d of %d jobs", errCheck, st.Placed, st.Killed, st.Jobs)
	case st.Drains == 0 && st.Placed+st.Killed != st.Jobs:
		return fmt.Errorf("%w: pool placed %d + killed %d != %d jobs", errCheck, st.Placed, st.Killed, st.Jobs)
	case st.Drains > 0 && st.Placed+st.Killed < st.Jobs:
		return fmt.Errorf("%w: pool placed %d + killed %d < %d jobs", errCheck, st.Placed, st.Killed, st.Jobs)
	}
	return nil
}

func countHealth(m *meter, hs health.Stats) {
	m.add("health.beats", float64(hs.Beats))
	m.add("health.suspicions", float64(hs.Suspicions))
	m.add("health.drains", float64(hs.Drains))
}

// runEnv times the simulation run itself.
func runEnv(m *meter, env *sim.Env) time.Duration {
	d, _ := m.call("sim.Env.Run", func() error {
		env.Run()
		return nil
	})
	return d
}

func closeEnv(m *meter, env *sim.Env) {
	_, _ = m.call("sim.Env.Close", func() error {
		env.Close()
		return nil
	})
}

// --- serve-churn ---

var (
	serveSlacks   = []sim.Duration{0, 100 * sim.Microsecond, 1 * sim.Millisecond}
	serveLoads    = []float64{0.5, 1}
	servePolicies = []serve.Policy{serve.NoBatch, serve.FixedBatch, serve.Continuous}
	churnSlacks   = []sim.Duration{0, 100 * sim.Microsecond}
	churnLevels   = []float64{0.5, 1}
)

const (
	// serveWindow is the paper's serving window; serveReplicas repeats
	// the grid with fresh draws, because a churn cell's cost turns on
	// when its pool happens to collapse.
	serveWindow   = 5 * sim.Second
	serveReplicas = 3
	churnStandbys = 2
	churnMaxQueue = 64
	churnOutage   = 40 * sim.Millisecond
	churnGap      = 60 * sim.Millisecond
)

func serveChurn() workload {
	return workload{
		name: "serve-churn",
		sizes: fmt.Sprintf("%d replicas of serving: policies %v x slacks %v x loads %v, and churn: continuous x "+
			"slacks %v x loads %v x churn %v x baseline/managed on a %d-server resilient pool; %v window",
			serveReplicas, servePolicies, serveSlacks, serveLoads, churnSlacks, serveLoads, churnLevels,
			churnStandbys+1, serveWindow),
		warmup: servingCell("warmup", serve.Continuous, 100*sim.Microsecond, 1, 200*sim.Millisecond, 1),
		cells: func(seed int64) []cell {
			seeds := newSeedStream(seed)
			var cs []cell
			for r := 0; r < serveReplicas; r++ {
				for _, pol := range servePolicies {
					for _, sl := range serveSlacks {
						for _, load := range serveLoads {
							name := fmt.Sprintf("r%d-serving-%v-%v-load%g", r, pol, sl, load)
							cs = append(cs, servingCell(name, pol, sl, load, serveWindow, seeds.next()))
						}
					}
				}
				for _, sl := range churnSlacks {
					for _, load := range serveLoads {
						for _, level := range churnLevels {
							for _, managed := range []bool{false, true} {
								arm := "baseline"
								if managed {
									arm = "managed"
								}
								name := fmt.Sprintf("r%d-churn-%v-load%g-churn%g-%s", r, sl, load, level, arm)
								cs = append(cs, churnCell(name, sl, load, level, managed, serveWindow,
									seeds.next(), seeds.next()))
							}
						}
					}
				}
			}
			return cs
		},
	}
}

// servingCell serves one window on a node-local GPU with slack injected
// after every link-crossing call.
func servingCell(name string, pol serve.Policy, sl sim.Duration, load float64, window sim.Duration, seed int64) cell {
	return cell{name: name, run: func(m *meter) (string, error) {
		tenants := servingTenants(load)
		reqs, err := generate(m, tenants, window, seed)
		if err != nil {
			return "", err
		}
		env := sim.NewEnv()
		defer closeEnv(m, env)
		var dev *gpu.Device
		if err := m.setup("gpu.NewDevice", func() (err error) {
			dev, err = gpu.NewDevice(env, gpu.A100())
			return err
		}); err != nil {
			return "", err
		}
		ctx := cuda.NewContext(dev, cuda.Config{})
		ctx.Interpose(slack.New(sl))
		var eng *serve.Engine
		if err := m.setup("serve.Start", func() (err error) {
			eng, err = serve.Start(env, serve.NewLocal(ctx), serve.Config{Policy: pol, Tenants: tenants}, reqs)
			return err
		}); err != nil {
			return "", err
		}
		m.add("serve.run_s", runEnv(m, env).Seconds())
		if err := eng.Err(); err != nil {
			return "", err
		}
		rep := eng.Metrics().Report(window)
		if err := checkServe(m, rep, len(reqs), eng.Completed()); err != nil {
			return "", err
		}
		return canon(rep), nil
	}}
}

func generate(m *meter, tenants []serve.Tenant, window sim.Duration, seed int64) ([]serve.Request, error) {
	var reqs []serve.Request
	err := m.setup("serve.Generate", func() (err error) {
		reqs, err = serve.Generate(tenants, window, seed)
		return err
	})
	return reqs, err
}

// churnResult is what a churn cell's checks compare.
type churnResult struct {
	Report    serve.Report
	Remoting  remoting.Stats
	Health    health.Stats
	Exhausted bool
}

// churnCell serves one window against a resilient three-server pool under
// recurring crash outages; the managed arm adds the health control plane
// and SLO-aware shedding driven by it.
func churnCell(name string, sl sim.Duration, load, level float64, managed bool, window sim.Duration,
	seed, faultSeed int64) cell {
	return cell{name: name, run: func(m *meter) (string, error) {
		tenants := servingTenants(load)
		for i := range tenants {
			if tenants[i].Name == "batchapi" {
				tenants[i].Priority = 1 // sheds first under degradation
			}
		}
		reqs, err := generate(m, tenants, window, seed)
		if err != nil {
			return "", err
		}
		path, err := fabric.PathForSlack(sl)
		if err != nil {
			return "", err
		}
		env := sim.NewEnv()
		defer closeEnv(m, env)
		var rp *remoting.Resilient
		if err := m.setup("remoting.NewResilient", func() (err error) {
			rp, err = remoting.NewResilient(env, gpu.A100(), remoting.ResilientConfig{
				Config: remoting.Config{Path: path, Seed: faultSeed},
				Faults: faults.Config{
					Seed:       faultSeed,
					CrashAfter: sim.Duration(float64(churnGap) / level),
					CrashFor:   churnOutage,
				},
				Policy: faults.Policy{
					CallTimeout: 100 * sim.Millisecond, MaxRetries: 2,
					BreakerThreshold: 2, BreakerCooldown: 5 * sim.Millisecond,
				},
				Standbys:             churnStandbys,
				DisableLocalFallback: true,
			})
			return err
		}); err != nil {
			return "", err
		}
		cfg := serve.Config{Policy: serve.Continuous, Tenants: tenants}
		var ctl *health.Controller
		if managed {
			if err := m.setup("health.Start", func() (err error) {
				ctl, err = health.Start(env, rp, rp.Injector(), health.Config{
					Seed: faultSeed, Horizon: 2 * window, Path: path,
				})
				return err
			}); err != nil {
				return "", err
			}
			cfg.Admission = serve.Admission{ShedExpired: true, MaxQueue: churnMaxQueue, Capacity: ctl}
		}
		var eng *serve.Engine
		if err := m.setup("serve.Start", func() (err error) {
			eng, err = serve.Start(env, serve.NewRemote(rp), cfg, reqs)
			return err
		}); err != nil {
			return "", err
		}
		m.add("serve.run_s", runEnv(m, env).Seconds())
		// A pool that every server left at once is a measurement of the
		// cell, not a failure of it: the report covers what completed.
		res := churnResult{Report: eng.Metrics().Report(window), Remoting: rp.Stats(), Exhausted: eng.Err() != nil}
		if ctl != nil {
			res.Health = ctl.Stats()
			countHealth(m, res.Health)
		}
		m.add("remoting.calls", float64(res.Remoting.Calls))
		m.add("remoting.retries", float64(res.Remoting.Retries))
		m.add("remoting.failovers", float64(res.Remoting.Failovers))
		if err := checkServe(m, res.Report, len(reqs), eng.Completed()); err != nil {
			return "", err
		}
		return canon(res), nil
	}}
}

// checkServe is the request conservation law: every generated request
// was offered, and each offered request completed, was shed or failed.
func checkServe(m *meter, rep serve.Report, generated, engineCompleted int) error {
	m.add("serve.requests", float64(rep.Requests))
	m.add("serve.completed", float64(rep.Completed))
	m.add("serve.shed", float64(rep.Shed))
	switch {
	case rep.Requests != generated:
		return fmt.Errorf("%w: serve offered %d of %d generated requests", errCheck, rep.Requests, generated)
	case rep.Completed != engineCompleted:
		return fmt.Errorf("%w: serve report completed %d, engine %d", errCheck, rep.Completed, engineCompleted)
	case rep.Completed < 0 || rep.Shed < 0 || rep.Failed < 0 ||
		rep.Completed+rep.Shed+rep.Failed != rep.Requests:
		return fmt.Errorf("%w: serve completed %d + shed %d + failed %d != %d requests",
			errCheck, rep.Completed, rep.Shed, rep.Failed, rep.Requests)
	}
	return nil
}
