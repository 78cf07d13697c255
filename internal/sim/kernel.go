// Package sim implements a deterministic discrete-event simulation kernel.
//
// Both platform models in this repository — the 16-core NUMA SMP machine
// (internal/smp) and the STi7200 MPSoC (internal/sti7200) — execute on top of
// this kernel. Simulated software runs as cooperative processes: ordinary Go
// functions that are suspended and resumed by the kernel so that exactly one
// process executes at any instant. All durations are virtual; the kernel
// advances its clock from event to event, which makes every experiment in
// this repository bit-reproducible.
//
// The design follows the classic process-oriented discrete-event style
// (SimPy, OMNeT++): an event heap ordered by (time, sequence) drives
// callbacks, and each process is a goroutine that hands control back to the
// kernel whenever it blocks on virtual time or on a synchronization object
// (Queue, Semaphore, Resource, Signal).
package sim

import (
	"container/heap"
	"fmt"
	"sort"
)

// Time is an absolute virtual time stamp in nanoseconds since the start of
// the simulation.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Common duration units, mirroring package time for virtual durations.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// String formats a Duration using the most natural unit.
func (d Duration) String() string {
	switch {
	case d >= Second:
		return fmt.Sprintf("%.3fs", float64(d)/float64(Second))
	case d >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(d)/float64(Millisecond))
	case d >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(d)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(d))
	}
}

// Microseconds reports the duration as a floating-point microsecond count.
func (d Duration) Microseconds() float64 { return float64(d) / float64(Microsecond) }

// Milliseconds reports the duration as a floating-point millisecond count.
func (d Duration) Milliseconds() float64 { return float64(d) / float64(Millisecond) }

// Seconds reports the duration as a floating-point second count.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Event kinds. Process wake-ups are the overwhelming majority of scheduled
// events (every send, receive, advance and sleep produces at least one), so
// they carry the target process in the event struct itself instead of a
// closure: the park/wake/resume cycle allocates nothing once the free list
// is warm.
const (
	evFn     uint8 = iota // run fn in kernel context
	evWake                // timer aimed at p: call wake(p) when dispatched
	evResume              // resume p if still ready and its park matches pseq
)

// event is a scheduled kernel callback.
type event struct {
	at   Time
	seq  uint64 // tie-breaker: FIFO among simultaneous events
	fn   func() // evFn only
	p    *Proc  // evWake / evResume target
	pseq uint64 // evResume: park sequence the resume is aimed at
	kind uint8
}

// eventHeap is a min-heap on (at, seq).
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() (popped any) {
	old := *h
	n := len(old)
	popped = old[n-1]
	*h = old[:n-1]
	return
}

// Kernel is a discrete-event simulation engine. The zero value is not usable;
// construct kernels with NewKernel.
type Kernel struct {
	now     Time
	seq     uint64
	events  eventHeap
	free    []*event // recycled event structs for the hot scheduling loop
	procs   map[*Proc]struct{}
	yield   chan struct{} // process -> kernel handoff
	stopped bool
	tracer  func(t Time, format string, args ...any)
}

// heapHint pre-sizes the event heap and bounds the free list: past this many
// idle recycled events the kernel lets the garbage collector have them.
const heapHint = 4096

// NewKernel returns an empty kernel with its clock at zero.
func NewKernel() *Kernel {
	return &Kernel{
		events: make(eventHeap, 0, heapHint),
		procs:  make(map[*Proc]struct{}),
		yield:  make(chan struct{}),
	}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// SetTracer installs a debug tracer invoked on process state transitions.
// A nil tracer disables tracing.
func (k *Kernel) SetTracer(fn func(t Time, format string, args ...any)) { k.tracer = fn }

// trace forwards to the installed tracer. Hot-path callers must guard with
// `if k.tracer != nil` themselves: a variadic call materializes its []any
// argument pack at the call site whether or not the tracer is installed,
// which used to cost the park/wake cycle several allocations per operation.
func (k *Kernel) trace(format string, args ...any) {
	if k.tracer != nil {
		k.tracer(k.now, format, args...)
	}
}

// At schedules fn to run in kernel context when the virtual clock reaches
// now+d. Scheduling in the past panics: the kernel never rewinds.
func (k *Kernel) At(d Duration, fn func()) {
	k.schedule(d, evFn, fn, nil, 0)
}

// atWake schedules a closure-free wake-up of p at now+d (the timer half of
// Advance, YieldTurn and SleepUS).
func (k *Kernel) atWake(d Duration, p *Proc) {
	k.schedule(d, evWake, nil, p, 0)
}

// schedule is the shared scheduling path behind At, atWake and wake.
func (k *Kernel) schedule(d Duration, kind uint8, fn func(), p *Proc, pseq uint64) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	k.seq++
	var ev *event
	if n := len(k.free); n > 0 {
		ev = k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
	} else {
		ev = new(event)
	}
	ev.at, ev.seq, ev.fn, ev.p, ev.pseq, ev.kind = k.now+Time(d), k.seq, fn, p, pseq, kind
	heap.Push(&k.events, ev)
}

// recycle returns a dispatched event to the free list.
func (k *Kernel) recycle(ev *event) {
	ev.fn, ev.p = nil, nil
	if len(k.free) < heapHint {
		k.free = append(k.free, ev)
	}
}

// Spawn creates a new process named name executing fn and schedules it to
// start at the current virtual time. The returned Proc is valid immediately
// but fn only begins executing once Run processes the start event.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	return k.SpawnAt(0, name, fn)
}

// SpawnAt is Spawn with a start delay of d.
func (k *Kernel) SpawnAt(d Duration, name string, fn func(p *Proc)) *Proc {
	p := &Proc{
		k:      k,
		name:   name,
		resume: make(chan struct{}),
		state:  StateNew,
	}
	k.procs[p] = struct{}{}
	k.At(d, func() {
		p.state = StateRunning
		go func() {
			<-p.resume // wait for the kernel's first handoff
			defer func() {
				if r := recover(); r != nil && r != procKilled {
					p.panicked = fmt.Errorf("sim: process %q panicked: %v", p.name, r)
				}
				p.state = StateDone
				delete(k.procs, p)
				for _, w := range p.doneWaiters {
					k.wake(w)
				}
				p.doneWaiters = nil
				k.yield <- struct{}{}
			}()
			fn(p)
		}()
		k.handoff(p)
	})
	return p
}

// handoff transfers control to p and blocks the kernel until p parks,
// terminates or advances time.
func (k *Kernel) handoff(p *Proc) {
	p.resume <- struct{}{}
	<-k.yield
	if p.panicked != nil {
		panic(p.panicked)
	}
}

// wake schedules p to resume at the current virtual time. It is the
// low-level mechanism used by all synchronization objects. Stale wakes —
// aimed at a park the process has already left (e.g. a timer firing after a
// Kill already unblocked the process) — are ignored via the park sequence
// number.
func (k *Kernel) wake(p *Proc) {
	if p.state != StateParked {
		return // already woken by someone else, or terminated
	}
	p.state = StateReady
	k.schedule(0, evResume, nil, p, p.parkSeq)
}

// dispatch runs one dequeued event after it has been recycled.
func (k *Kernel) dispatch(kind uint8, fn func(), p *Proc, pseq uint64) {
	switch kind {
	case evFn:
		fn()
	case evWake:
		k.wake(p)
	case evResume:
		if p.state != StateReady || p.parkSeq != pseq {
			return // superseded: the process moved on in the meantime
		}
		p.state = StateRunning
		if k.tracer != nil {
			k.trace("resume %s", p.name)
		}
		k.handoff(p)
	}
}

// Run executes events until none remain, then verifies that no process is
// still blocked. If blocked processes remain, Run returns a *DeadlockError
// naming them; otherwise it returns nil.
func (k *Kernel) Run() error {
	return k.RunUntil(Time(1<<62 - 1))
}

// RunUntil executes events with timestamps <= limit. It returns a
// *DeadlockError if the event queue drains while processes are still parked,
// and nil otherwise (including when the limit cuts the run short).
func (k *Kernel) RunUntil(limit Time) error {
	for len(k.events) > 0 {
		ev := k.events[0]
		if ev.at > limit {
			k.now = limit
			return nil
		}
		heap.Pop(&k.events)
		if ev.at < k.now {
			panic("sim: event queue time went backwards")
		}
		k.now = ev.at
		kind, fn, p, pseq := ev.kind, ev.fn, ev.p, ev.pseq
		// Recycle before dispatch: once its fields are saved the struct
		// carries no live state, and the dispatched work may schedule (and
		// so reuse) events.
		k.recycle(ev)
		k.dispatch(kind, fn, p, pseq)
	}
	var parked []string
	for p := range k.procs {
		if p.state == StateParked && !p.daemon {
			parked = append(parked, p.name+" ("+p.waitReason+")")
		}
	}
	if len(parked) > 0 {
		sort.Strings(parked)
		return &DeadlockError{Time: k.now, Parked: parked}
	}
	return nil
}

// Shutdown ends the simulation for good. Every process still alive — after
// a completed run, the daemon service flows parked on queues that will
// never fill again — is killed and resumed until its goroutine has
// unwound and exited, so nothing the processes close over stays reachable
// through them. Processes spawned but never started are dropped, and
// pending events are discarded. The clock and every process's final state
// stay readable; the kernel must not be run again.
func (k *Kernel) Shutdown() {
	k.events = nil
	for len(k.procs) > 0 {
		for p := range k.procs {
			if p.state == StateNew { // never started: no goroutine to unwind
				delete(k.procs, p)
				continue
			}
			p.killed = true
			p.state = StateRunning
			k.handoff(p)
		}
	}
}

// Pending reports the number of scheduled, not-yet-executed events.
func (k *Kernel) Pending() int { return len(k.events) }

// Live reports the number of processes that have been spawned and have not
// yet terminated.
func (k *Kernel) Live() int { return len(k.procs) }

// DeadlockError reports that simulation stalled with parked processes.
type DeadlockError struct {
	Time   Time
	Parked []string
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at t=%d with %d parked process(es): %v",
		e.Time, len(e.Parked), e.Parked)
}
