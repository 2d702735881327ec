package lammps

import (
	"fmt"
	"math"

	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/sim"
	"repro/internal/slack"
)

// HybridConfig runs the numeric MD engine through the simulated GPU: the
// physics is computed for real (on the host, standing in for the device's
// arithmetic) while every offload step is charged through the
// CUDA/device/slack stack in virtual time. This couples correctness and
// timing in one run: slack cannot change trajectories, only the clock —
// which HybridResult lets tests verify directly.
type HybridConfig struct {
	// BoxSize is the numeric system size (small: real O(N²·steps) work).
	BoxSize int
	// Steps to integrate.
	Steps int
	// Seed for initial velocities.
	Seed int64
	// Slack injected after every link-crossing CUDA call.
	Slack sim.Duration
	// Spec selects the device (zero value = gpu.A100()).
	Spec gpu.Spec
}

// HybridResult reports a hybrid run.
type HybridResult struct {
	// System is the final numeric state (positions, velocities, energy).
	System *System
	// Runtime is the virtual wall time of the stepping loop.
	Runtime sim.Duration
	// Energy is the final total energy (for conservation checks).
	Energy float64
	// DelayedCalls counts slack-delayed API calls.
	DelayedCalls int64
}

// RunHybrid integrates a real LJ system with every force evaluation
// offloaded through the simulated device.
func RunHybrid(cfg HybridConfig) (HybridResult, error) {
	if cfg.BoxSize <= 0 || cfg.Steps <= 0 {
		return HybridResult{}, fmt.Errorf("lammps: invalid hybrid shape box=%d steps=%d", cfg.BoxSize, cfg.Steps)
	}
	if s := float64(cfg.Slack); s < 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		return HybridResult{}, fmt.Errorf("lammps: slack %v must be finite and non-negative", cfg.Slack)
	}
	if cfg.Spec.Name == "" {
		cfg.Spec = gpu.A100()
	}

	env := sim.NewEnv()
	defer env.Close()
	dev, err := gpu.NewDevice(env, cfg.Spec)
	if err != nil {
		return HybridResult{}, err
	}
	ctx := cuda.NewContext(dev, cuda.Config{})
	inj := slack.New(cfg.Slack)
	ctx.Interpose(inj)

	system := NewSystem(cfg.BoxSize, cfg.Seed)
	posBytes := int64(system.N) * PosBytesPerAtom
	forceBytes := int64(system.N) * ForceBytesPerAtom

	res := HybridResult{System: system}
	var runErr error
	env.Spawn("md", func(p *sim.Proc) {
		dPos, err := ctx.Malloc(p, posBytes)
		if err != nil {
			runErr = err
			return
		}
		dForce, err := ctx.Malloc(p, forceBytes)
		if err != nil {
			runErr = err
			return
		}
		start := p.Now()
		for step := 0; step < cfg.Steps; step++ {
			// The numeric half-kick + drift happens "on the host".
			dt := system.Timestep
			half := dt / 2
			for i := range system.Pos {
				system.Vel[i] = system.Vel[i].Add(system.Force[i].Scale(half))
				system.Pos[i] = system.Pos[i].Add(system.Vel[i].Scale(dt))
				system.Pos[i] = Vec3{system.wrap(system.Pos[i].X), system.wrap(system.Pos[i].Y), system.wrap(system.Pos[i].Z)}
			}
			system.buildCells()

			// Offload the force evaluation: ship positions, run the kernel
			// (the real arithmetic happens here, standing in for the
			// device), ship forces back — all charged in virtual time.
			if err := ctx.MemcpyH2D(p, dPos, posBytes); err != nil {
				runErr = err
				return
			}
			ctx.LaunchSync(p, ljForceKernel(system.N), nil)
			system.ComputeForces()
			if err := ctx.MemcpyD2H(p, dForce, forceBytes); err != nil {
				runErr = err
				return
			}

			for i := range system.Vel {
				system.Vel[i] = system.Vel[i].Add(system.Force[i].Scale(half))
			}
			system.StepsRun++
		}
		res.Runtime = p.Now().Sub(start)
		ctx.MustFree(p, dPos)
		ctx.MustFree(p, dForce)
	})
	env.Run()
	if runErr != nil {
		return HybridResult{}, runErr
	}
	res.Energy = system.TotalEnergy()
	res.DelayedCalls = inj.DelayedCalls()
	return res, nil
}
