package sim

import (
	"fmt"
	"math"
	"sort"
)

// event is a scheduled wake-up for a parked process (or a start for a
// freshly spawned one).
type event struct {
	at   Time
	seq  uint64 // FIFO tie-break for simultaneous events
	proc *Proc
	// cancelled events stay queued but are skipped when they surface; this
	// is how racing wake-ups (timeout vs signal) resolve without queue
	// surgery.
	cancelled bool
	// kind distinguishes why the process wakes, so racing wake-ups can
	// report which one won.
	kind wakeKind
}

type wakeKind uint8

const (
	wakeTimer wakeKind = iota
	wakeSignal
	wakeStart
)

// evLess is the engine's total event order: time first, then the global
// schedule sequence as FIFO tie-break.
func evLess(a, b *event) bool {
	//cdivet:allow floateq exact tie-break: events at bit-identical times fall through to the seq FIFO order; an epsilon would merge distinct instants
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventHeap is a hand-rolled binary min-heap ordered by evLess. The
// container/heap interface would force an `any` conversion and dynamic
// dispatch on the hottest queue path; these two loops are the whole of
// what the engine needs.
type eventHeap []*event

func (h *eventHeap) pushEv(ev *event) {
	*h = append(*h, ev)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !evLess(s[i], s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *eventHeap) popMin() *event {
	s := *h
	n := len(s) - 1
	min := s[0]
	s[0] = s[n]
	s[n] = nil
	s = s[:n]
	*h = s
	// Sift the moved element down.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && evLess(s[l], s[least]) {
			least = l
		}
		if r < n && evLess(s[r], s[least]) {
			least = r
		}
		if least == i {
			break
		}
		s[i], s[least] = s[least], s[i]
		i = least
	}
	return min
}

// Env is a simulation environment: a virtual clock plus the event queue and
// process bookkeeping that drive it. The zero value is not usable; create
// environments with NewEnv.
//
// Env is not safe for concurrent use from multiple goroutines the caller
// owns; the engine's determinism comes precisely from running exactly one
// process at a time.
//
// # Scheduling core
//
// Pending events live in one heap ordered by (time, seq), where seq is a
// global schedule counter, so the order is total. A process body runs as a coroutine, or, for a stackless
// step process (SpawnStep), as a plain function called once per wake-up.
// RunUntil is the one loop that transfers control: it pops the next event
// and resumes its coroutine, or calls its step body, which runs until it
// parks again. A parking coroutine first runs any step wake-ups heading
// the heap inline, and continues inline without switching at all when its
// own wake-up comes next.
type Env struct {
	now Time
	seq uint64
	q   eventHeap // pending events, cancelled ones included

	horizon Time    // current run's clock bound (+Inf outside RunUntil)
	nprocs  int     // live (spawned, not finished) processes
	idle    []*coro // coroutines whose body ended, ready for the next process
	closed  bool

	// parked lists every process currently registered on a Signal (not
	// only a timer), so deadlocks can be reported and Close can unwind
	// them. Each process records its slot (Proc.parkIdx), and removal swaps
	// the last entry into it.
	parked []*Proc

	// free recycles consumed events, and slab batch-allocates fresh ones in
	// 64-event chunks. The hot loop of every simulation is
	// schedule→pop→deliver; without reuse each cycle would allocate one
	// event, which dominated the engine's allocation profile
	// (BenchmarkSimEngineEvents). An event is recycled only once it has
	// left both the queue and its process's waits list.
	free []*event
	slab []event

	stats Stats
}

// Stats counts the work an Env has done. Every field is a deterministic
// function of the simulated program, so a test can pin them exactly.
// Events delivered are Wakeups + Inline.
type Stats struct {
	// Wakeups counts events RunUntil's loop delivered. Each one either
	// switches to a coroutine or calls a step body.
	Wakeups uint64
	// Inline counts events a parking coroutine delivered without leaving
	// its stack: its own wake-up, or a step body's, heading the queue.
	Inline uint64
	// Steps counts step-body calls, from the loop and inline.
	Steps uint64
	// Switches counts coroutine switches: resumes from the loop.
	Switches uint64
	// Spawns counts processes spawned.
	Spawns uint64
}

// Stats returns the work counters accumulated so far. Close's teardown
// is not counted.
func (e *Env) Stats() Stats { return e.stats }

// NewEnv returns an empty environment with the clock at zero.
func NewEnv() *Env {
	e := &Env{}
	e.horizon = Time(math.Inf(1))
	return e
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// newEvent returns a zeroed event from the freelist or the slab.
func (e *Env) newEvent() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	if len(e.slab) == 0 {
		e.slab = make([]event, 64)
	}
	ev := &e.slab[0]
	e.slab = e.slab[1:]
	return ev
}

// schedule enqueues a wake-up event for p and registers it with the
// process, so that delivering any one of a process's outstanding wake-ups
// cancels the others. A NaN time would break the heap's (time, seq) order
// for every other pending event, and validated inputs never produce one, so
// it is a bug and panics.
func (e *Env) schedule(at Time, p *Proc, kind wakeKind) *event {
	if math.IsNaN(float64(at)) {
		panic("sim: NaN wake-up time")
	}
	if at < e.now {
		at = e.now
	}
	e.seq++
	ev := e.newEvent()
	ev.at, ev.seq, ev.proc, ev.kind = at, e.seq, p, kind
	ev.cancelled = false
	e.q.pushEv(ev)
	p.waits = append(p.waits, ev)
	return ev
}

// recycle returns a consumed event to the freelist. The caller must hold
// the only remaining reference: the event is off the queue and no process
// waits list contains it.
func (e *Env) recycle(ev *event) {
	ev.proc = nil
	e.free = append(e.free, ev)
}

// head returns the earliest live event at or before the horizon, leaving
// it queued. It returns nil when the run segment is over: either the queue
// is empty, or the earliest live event lies beyond the horizon (in which
// case the clock advances to the horizon, matching the contract of
// RunUntil).
func (e *Env) head() *event {
	for len(e.q) > 0 {
		ev := e.q[0]
		if ev.cancelled {
			e.recycle(e.q.popMin())
			continue
		}
		if ev.at > e.horizon {
			if e.now < e.horizon {
				e.now = e.horizon
			}
			return nil
		}
		return ev
	}
	return nil
}

// next pops the event head returns.
func (e *Env) next() *event {
	if e.head() == nil {
		return nil
	}
	return e.q.popMin()
}

// wake consumes ev: it cancels the process's rival wake-ups, clears its
// parked registration, advances the clock, and records the wake kind. The
// caller resumes the returned process (or is it).
func (e *Env) wake(ev *event) *Proc {
	p := ev.proc
	for _, o := range p.waits {
		if o != ev {
			o.cancelled = true
		}
	}
	p.waits = p.waits[:0]
	if p.sigParked {
		e.unpark(p)
	}
	e.now = ev.at
	p.wake = ev.kind
	e.recycle(ev)
	return p
}

// park adds p to the parked list. A process parks on at most one Signal per
// wake-up; a second park before the wake-up would list it twice.
func (e *Env) park(p *Proc) {
	if p.sigParked {
		panic("sim: process " + p.name + " armed a second Signal before waking")
	}
	p.parkIdx = int32(len(e.parked))
	p.sigParked = true
	e.parked = append(e.parked, p)
}

// unpark removes p from the parked list, moving the last entry into its
// slot. Order within the list is unobservable: Blocked sorts, and Close's
// unwind order does not matter.
func (e *Env) unpark(p *Proc) {
	last := len(e.parked) - 1
	moved := e.parked[last]
	e.parked[p.parkIdx] = moved
	moved.parkIdx = p.parkIdx
	e.parked[last] = nil
	e.parked = e.parked[:last]
	p.sigParked = false
}

// Spawn creates a process running fn and schedules it to start at the
// current virtual time. fn receives the process handle, through which all
// blocking primitives are reached. Spawn may be called before Run or from
// inside a running process.
func (e *Env) Spawn(name string, fn func(p *Proc)) *Proc {
	return e.spawnAt(0, &Proc{name: name, fn: fn})
}

// SpawnAt is Spawn with a start delay.
func (e *Env) SpawnAt(delay Duration, name string, fn func(p *Proc)) *Proc {
	return e.spawnAt(delay, &Proc{name: name, fn: fn})
}

// SpawnStep creates a stackless step process, starting at the current
// virtual time. A step process has no coroutine: step runs as a plain call
// at each of its wake-ups, the first being its start. It must never block.
// Instead it arms its next wake-up with Proc.ArmTimer, Signal.Arm or
// Resource.AcquireOrArm and returns true, or returns false to end the
// process. Its wake-ups take the same (time, seq) slots the equivalent
// blocking code would, so converting a coroutine body to a step body
// leaves the event order unchanged, and a coroutine that parks runs a step
// wake-up heading the queue inline instead of switching away.
func (e *Env) SpawnStep(name string, step func(p *Proc) bool) *Proc {
	return e.spawnAt(0, &Proc{name: name, step: step})
}

// SpawnStepAt is SpawnStep with a start delay, as SpawnAt is Spawn's.
func (e *Env) SpawnStepAt(delay Duration, name string, step func(p *Proc) bool) *Proc {
	return e.spawnAt(delay, &Proc{name: name, step: step})
}

// spawnAt binds p, whose name and body are set, to the environment and
// schedules its start delay from now.
func (e *Env) spawnAt(delay Duration, p *Proc) *Proc {
	if e.closed {
		panic("sim: Spawn on closed Env")
	}
	if delay < 0 {
		panic("sim: negative spawn delay")
	}
	p.env = e
	p.waits = p.waitsBuf[:0]
	e.nprocs++
	e.stats.Spawns++
	e.schedule(e.now.Add(delay), p, wakeStart)
	return p
}

// Run drives the simulation until no runnable events remain, then returns
// the final virtual time. Processes still blocked on Signals at that point
// constitute a deadlock; query them with Blocked.
func (e *Env) Run() Time {
	return e.RunUntil(Time(math.Inf(1)))
}

// RunUntil drives the simulation until the event queue is exhausted or
// the next event lies beyond horizon. The clock never advances past
// horizon. A panic in a process body propagates to the caller.
func (e *Env) RunUntil(horizon Time) Time {
	if e.closed {
		panic("sim: RunUntil on closed Env")
	}
	e.horizon = horizon
	for ev := e.next(); ev != nil; ev = e.next() {
		e.stats.Wakeups++
		if p := e.wake(ev); p.step != nil {
			e.runStep(p)
		} else {
			e.resume(p)
		}
	}
	e.stopIdle()
	return e.now
}

// Blocked returns the names of processes parked on Signals with no pending
// wake-up — the processes that would deadlock if Run returned now. A
// process in WaitTimeout still has its deadline pending, so it is not
// blocked. The result is sorted for stable test output.
func (e *Env) Blocked() []string {
	names := make([]string, 0, len(e.parked))
	for _, p := range e.parked {
		if len(p.waits) == 0 {
			names = append(names, p.name)
		}
	}
	sort.Strings(names)
	return names
}

// Live returns the number of processes that have started but not finished.
func (e *Env) Live() int { return e.nprocs }

// Close unwinds every parked process and marks the environment unusable.
// It must not be called from inside a process. Close is safe to call after
// Run; environments that ran to completion with no blocked processes have
// nothing to unwind.
func (e *Env) Close() {
	if e.closed {
		return
	}
	e.closed = true
	e.horizon = Time(math.Inf(1))
	// Teardown happens after results are final, so unwind order is
	// unobservable. The list is detached first, so a body that fires a
	// signal while it unwinds cannot reorder the entries still to visit.
	parked := e.parked
	e.parked = nil
	for _, p := range parked {
		p.sigParked = false
	}
	for _, p := range parked {
		e.abort(p)
	}
	// Unwind processes parked on timers (or not yet started), whatever
	// their wake-up time.
	for ev := e.next(); ev != nil; ev = e.next() {
		e.abort(e.wake(ev))
	}
	e.stopIdle()
}

// String summarizes the environment state for debugging.
func (e *Env) String() string {
	return fmt.Sprintf("sim.Env{now: %v, queued: %d, live: %d, blocked: %d}",
		e.now, len(e.q), e.nprocs, len(e.parked))
}
