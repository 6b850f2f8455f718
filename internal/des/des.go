// Package des is a deterministic discrete-event simulation kernel in the
// coroutine style: simulated processes are goroutines, but the scheduler
// runs exactly one at a time and advances a virtual clock, so simulations
// are fast, deterministic, and independent of wall-clock time and host
// core count.
//
// The CRFS reproduction uses it to model checkpoint writing on a 64-node
// cluster: MPI processes, BLCR writers, the VFS page cache, disks, NFS and
// Lustre servers, and CRFS's own IO threads are all des processes.
//
// Determinism: events fire in (time, sequence) order; sequence numbers are
// assigned in program order, so equal-time events run FIFO. All blocking
// primitives (Resource, Queue, Gate, Notify) wake waiters through the
// event heap, never directly, preserving the total order.
package des

import (
	"container/heap"
	"fmt"
)

// Time is virtual time in nanoseconds since simulation start.
type Time = int64

// Duration is a span of virtual time in nanoseconds.
type Duration = int64

// Convenient duration units.
const (
	Nanosecond  Duration = 1
	Microsecond Duration = 1_000
	Millisecond Duration = 1_000_000
	Second      Duration = 1_000_000_000
)

// Seconds converts a virtual time or duration to float seconds.
func Seconds(t Time) float64 { return float64(t) / float64(Second) }

type procState int

const (
	stateNew procState = iota
	stateRunnable
	stateRunning
	stateBlocked
	stateDone
)

type resumeToken int

const (
	tokenRun resumeToken = iota
	tokenKill
)

// killed is the panic value used to unwind terminated processes.
type killed struct{}

// Proc is a simulated process. All methods must be called from within the
// process's own body function.
type Proc struct {
	env   *Env
	name  string
	state procState
	res   chan resumeToken
	// handoff carries an item from Queue.Put directly to a woken getter.
	handoff any
	// ok reports whether handoff is valid (vs. queue closed).
	ok bool
}

// Name returns the process name given to Spawn.
func (p *Proc) Name() string { return p.name }

// Env returns the owning environment.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// Wait suspends the process for d virtual nanoseconds. Negative d is
// treated as zero (yield to equal-time events scheduled earlier).
func (p *Proc) Wait(d Duration) {
	if d < 0 {
		d = 0
	}
	p.env.schedule(p.env.now+d, p)
	p.yield()
}

// yield returns control to the scheduler and blocks until resumed.
func (p *Proc) yield() {
	p.state = stateBlocked
	p.env.yielded <- struct{}{}
	if tok := <-p.res; tok == tokenKill {
		panic(killed{})
	}
	p.state = stateRunning
}

// block parks the process without scheduling a wake-up; some primitive
// must have registered it as a waiter and will schedule it later.
func (p *Proc) block() { p.yield() }

type event struct {
	t   Time
	seq int64
	p   *Proc
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// Env is a simulation environment: one virtual clock, one event heap, and
// the set of live processes. Not safe for concurrent use; the scheduler
// and all process bodies cooperate through it one at a time.
type Env struct {
	now     Time
	seq     int64
	heap    eventHeap
	yielded chan struct{}
	alive   map[*Proc]bool
	order   []*Proc // spawn order, for deterministic shutdown
	running bool
}

// New returns an empty environment at time zero.
func New() *Env {
	return &Env{
		yielded: make(chan struct{}),
		alive:   make(map[*Proc]bool),
	}
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// Live returns the number of processes that have not finished.
func (e *Env) Live() int { return len(e.alive) }

func (e *Env) schedule(t Time, p *Proc) {
	if t < e.now {
		panic(fmt.Sprintf("des: scheduling into the past: %d < %d", t, e.now))
	}
	e.seq++
	heap.Push(&e.heap, event{t: t, seq: e.seq, p: p})
}

// Spawn creates a process named name running fn, starting at the current
// virtual time (after already-scheduled equal-time events).
func (e *Env) Spawn(name string, fn func(*Proc)) *Proc {
	return e.SpawnAt(e.now, name, fn)
}

// SpawnAt creates a process starting at virtual time t (>= Now).
func (e *Env) SpawnAt(t Time, name string, fn func(*Proc)) *Proc {
	p := &Proc{env: e, name: name, state: stateNew, res: make(chan resumeToken)}
	e.alive[p] = true
	e.order = append(e.order, p)
	go func() {
		if tok := <-p.res; tok == tokenKill {
			p.state = stateDone
			delete(e.alive, p)
			e.yielded <- struct{}{}
			return
		}
		p.state = stateRunning
		defer func() {
			r := recover()
			p.state = stateDone
			delete(e.alive, p)
			if r != nil {
				if _, isKill := r.(killed); !isKill {
					// Real panic in a process body: re-raise on the
					// scheduler goroutine would deadlock, so decorate
					// and crash here with context.
					panic(fmt.Sprintf("des: process %q panicked: %v", name, r))
				}
			}
			e.yielded <- struct{}{}
		}()
		fn(p)
	}()
	e.schedule(t, p)
	return p
}

// Run executes events until the heap is empty, then returns the final
// virtual time. Processes still blocked on primitives are left parked;
// call Shutdown to terminate them.
func (e *Env) Run() Time {
	if e.running {
		panic("des: Run reentered")
	}
	e.running = true
	defer func() { e.running = false }()
	for len(e.heap) > 0 {
		ev := heap.Pop(&e.heap).(event)
		if ev.p.state == stateDone {
			continue
		}
		e.now = ev.t
		ev.p.res <- tokenRun
		<-e.yielded
	}
	return e.now
}

// Shutdown terminates every live process (unwinding their stacks) and
// waits for their goroutines to exit. The environment must not be used
// afterwards.
func (e *Env) Shutdown() {
	for _, p := range e.order {
		if !e.alive[p] {
			continue
		}
		p.res <- tokenKill
		<-e.yielded
	}
	e.heap = nil
}
