//go:build go1.23

package sim

import "iter"

// coro is a reusable coroutine that runs process bodies one after another.
// RunUntil resumes it through next; a running body parks through yield,
// which switches straight back to RunUntil's loop. A coroutine switch hands
// over the thread directly and never enters the Go scheduler's run queue,
// which is what makes it cheaper than a goroutine-and-channel handoff.
type coro struct {
	env   *Env
	p     *Proc // the process being run; nil while idle
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

// resume runs p until it parks or its body ends. A process binds a
// coroutine at its first wake-up, taking an idle one when there is one:
// creating a coroutine costs about a dozen allocations, so processes that
// spawn, sleep once and exit must not pay that each.
func (e *Env) resume(p *Proc) {
	c := p.co
	if c == nil {
		if n := len(e.idle); n > 0 {
			c = e.idle[n-1]
			e.idle[n-1] = nil
			e.idle = e.idle[:n-1]
		} else {
			c = &coro{env: e}
			c.next, c.stop = iter.Pull(c.run)
		}
		c.p, p.co = p, c
	}
	e.stats.Switches++
	c.next()
}

// runStep calls a step process's body for one wake-up and retires the
// process when the body reports it is done. A body must leave exactly one
// of those states: a wake-up armed and true returned, or nothing armed and
// false returned. Either mistake would strand the process, so it panics.
func (e *Env) runStep(p *Proc) {
	e.stats.Steps++
	more := p.step(p)
	if armed := len(p.waits) > 0 || p.sigParked; more != armed {
		if more {
			panic("sim: step process " + p.name + " returned true with no wake-up armed")
		}
		panic("sim: step process " + p.name + " returned false with a wake-up armed")
	}
	if !more {
		p.step = nil
		e.nprocs--
	}
}

// run is the coroutine body: it runs the bound process to completion, then
// parks on the idle list until resume binds the next process to it. Close
// and stopIdle end it through stop, which makes yield return false. A
// panic in a process body propagates out of next to RunUntil's caller.
func (c *coro) run(yield func(struct{}) bool) {
	defer func() {
		if r := recover(); r != nil && r != errAborted {
			panic(r)
		}
	}()
	c.yield = yield
	for {
		p := c.p
		p.fn(p)
		p.co, p.fn, c.p = nil, nil, nil
		c.env.nprocs--
		c.env.idle = append(c.env.idle, c)
		if !yield(struct{}{}) {
			return
		}
	}
}

// abort unwinds p's body, if it has started, and retires the process.
func (e *Env) abort(p *Proc) {
	for _, o := range p.waits {
		o.cancelled = true
	}
	p.waits = p.waits[:0]
	if p.co != nil {
		p.co.stop()
		p.co = nil
	}
	e.nprocs--
}

// stopIdle ends every idle coroutine, so an Env that runs to completion and
// is never closed leaves no goroutine behind.
func (e *Env) stopIdle() {
	for i, c := range e.idle {
		c.stop()
		e.idle[i] = nil
	}
	e.idle = e.idle[:0]
}
