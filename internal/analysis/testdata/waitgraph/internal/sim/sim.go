// Package sim is a corpus stand-in exposing the spawn and signal surface
// the waitgraph rule reasons about. The package itself is exempt — it
// implements the machinery.
package sim

// Duration is a span of virtual time.
type Duration float64

// Env is a minimal event environment.
type Env struct{}

// NewEnv builds an environment.
func NewEnv() *Env { return &Env{} }

// Spawn starts fn as a process.
func (e *Env) Spawn(name string, fn func(p *Proc)) {}

// SpawnAt starts fn as a process after delay.
func (e *Env) SpawnAt(delay Duration, name string, fn func(p *Proc)) {}

// SpawnStep starts a stackless step process.
func (e *Env) SpawnStep(name string, step func(p *Proc) bool) {}

// SpawnStepAt starts a stackless step process after delay.
func (e *Env) SpawnStepAt(delay Duration, name string, step func(p *Proc) bool) {}

// Proc is a process handle.
type Proc struct{ env *Env }

// Env returns the environment the process runs in.
func (p *Proc) Env() *Env { return p.env }

// Sleep parks the process for d of virtual time.
func (p *Proc) Sleep(d Duration) {}

// Signal is a broadcast primitive.
type Signal struct{ env *Env }

// NewSignal builds a signal bound to e.
func NewSignal(e *Env) *Signal { return &Signal{env: e} }

// Bind attaches a value-declared signal to its environment.
func (s *Signal) Bind(e *Env) { s.env = e }

// Wait parks the process until the signal fires.
func (s *Signal) Wait(p *Proc) {}

// WaitTimeout parks until the signal fires or d elapses.
func (s *Signal) WaitTimeout(p *Proc, d Duration) bool { return true }

// Arm registers the process as a waiter without parking.
func (s *Signal) Arm(p *Proc) {}

// Fire wakes every waiter.
func (s *Signal) Fire() {}

// FireOne wakes one waiter.
func (s *Signal) FireOne() {}
