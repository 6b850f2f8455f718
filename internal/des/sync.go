package des

// Resource is a counting resource with a FIFO wait queue — the des
// analogue of a semaphore. The CRFS simulation uses Resources for the VFS
// allocation lock, disk ownership, server request slots, CRFS IO-thread
// slots, and the chunk buffer pool.
//
// Capacity is reserved for waiters at Release time (direct handoff), so a
// later Acquire can never starve an earlier one.
type Resource struct {
	env      *Env
	capacity int64
	avail    int64
	waiters  []*resWaiter
	// MaxQueue tracks the high-water mark of the wait queue.
	MaxQueue int
}

type resWaiter struct {
	p *Proc
	n int64
}

// NewResource returns a Resource with the given capacity.
func NewResource(env *Env, capacity int64) *Resource {
	if capacity <= 0 {
		panic("des: resource capacity must be positive")
	}
	return &Resource{env: env, capacity: capacity, avail: capacity}
}

// Available returns the unreserved capacity.
func (r *Resource) Available() int64 { return r.avail }

// QueueLen returns the number of waiting processes.
func (r *Resource) QueueLen() int { return len(r.waiters) }

// Acquire takes n units, blocking in FIFO order until they are available.
// n must not exceed capacity.
func (r *Resource) Acquire(p *Proc, n int64) {
	if n <= 0 || n > r.capacity {
		panic("des: invalid acquire count")
	}
	if len(r.waiters) == 0 && r.avail >= n {
		r.avail -= n
		return
	}
	r.waiters = append(r.waiters, &resWaiter{p: p, n: n})
	if len(r.waiters) > r.MaxQueue {
		r.MaxQueue = len(r.waiters)
	}
	p.block()
}

// Release returns n units and wakes FIFO waiters whose requests now fit.
// It may be called from any process (or before Run starts).
func (r *Resource) Release(n int64) {
	r.avail += n
	if r.avail > r.capacity {
		panic("des: release exceeds capacity")
	}
	for len(r.waiters) > 0 && r.avail >= r.waiters[0].n {
		w := r.waiters[0]
		r.waiters = r.waiters[1:]
		r.avail -= w.n
		r.env.schedule(r.env.now, w.p)
	}
}

// Use acquires n units, runs fn, and releases, modelling a critical
// section with hold time charged inside fn.
func (r *Resource) Use(p *Proc, n int64, fn func()) {
	r.Acquire(p, n)
	defer r.Release(n)
	fn()
}

// Queue is a FIFO store of items with optional capacity — the des
// analogue of a buffered channel. CRFS's work queue and the NFS/Lustre
// server request queues are Queues.
type Queue struct {
	env     *Env
	cap     int // <= 0 means unbounded
	items   []any
	getters []*Proc
	putters []*queuePut
	closed  bool
}

type queuePut struct {
	p    *Proc
	item any
}

// NewQueue returns a queue holding at most capacity items; capacity <= 0
// means unbounded.
func NewQueue(env *Env, capacity int) *Queue {
	return &Queue{env: env, cap: capacity}
}

// Len returns the number of buffered items.
func (q *Queue) Len() int { return len(q.items) }

// Put appends item, blocking while the queue is full. Put on a closed
// queue panics (a modelling error, like sending on a closed channel).
func (q *Queue) Put(p *Proc, item any) {
	if q.closed {
		panic("des: put on closed queue")
	}
	if len(q.getters) > 0 {
		// Direct handoff to the oldest getter.
		g := q.getters[0]
		q.getters = q.getters[1:]
		g.handoff = item
		g.ok = true
		q.env.schedule(q.env.now, g)
		return
	}
	if q.cap > 0 && len(q.items) >= q.cap {
		q.putters = append(q.putters, &queuePut{p: p, item: item})
		p.block() // admitPutter has moved the item into the queue
		return
	}
	q.items = append(q.items, item)
}

// Get removes and returns the oldest item, blocking while the queue is
// empty. ok is false if the queue was closed and drained.
func (q *Queue) Get(p *Proc) (item any, ok bool) {
	if len(q.items) > 0 {
		item = q.items[0]
		q.items = q.items[1:]
		q.admitPutter()
		return item, true
	}
	if q.closed {
		return nil, false
	}
	q.getters = append(q.getters, p)
	p.block()
	return p.handoff, p.ok
}

// admitPutter moves a blocked putter's item into the freed slot.
func (q *Queue) admitPutter() {
	if len(q.putters) == 0 {
		return
	}
	put := q.putters[0]
	q.putters = q.putters[1:]
	q.items = append(q.items, put.item)
	q.env.schedule(q.env.now, put.p)
}

// Close marks the queue closed: blocked and future Gets drain remaining
// items and then return ok == false.
func (q *Queue) Close() {
	if q.closed {
		return
	}
	q.closed = true
	for _, g := range q.getters {
		g.handoff = nil
		g.ok = false
		q.env.schedule(q.env.now, g)
	}
	q.getters = nil
}

// Gate is a one-shot broadcast event: Wait blocks until Fire, after which
// all Waits return immediately. The MPI checkpoint barrier is a Gate.
type Gate struct {
	env     *Env
	fired   bool
	waiters []*Proc
}

// NewGate returns an unfired gate.
func NewGate(env *Env) *Gate { return &Gate{env: env} }

// Wait blocks until the gate fires.
func (g *Gate) Wait(p *Proc) {
	if g.fired {
		return
	}
	g.waiters = append(g.waiters, p)
	p.block()
}

// Fire releases all current and future waiters.
func (g *Gate) Fire() {
	if g.fired {
		return
	}
	g.fired = true
	for _, p := range g.waiters {
		g.env.schedule(g.env.now, p)
	}
	g.waiters = nil
}

// Notify is a reusable broadcast: each Broadcast wakes the processes
// currently waiting (condition-variable style; waiters re-check their
// predicate in a loop). CRFS's "complete chunk count" waiters use it.
type Notify struct {
	env     *Env
	waiters []*Proc
}

// NewNotify returns an empty notifier.
func NewNotify(env *Env) *Notify { return &Notify{env: env} }

// Wait blocks until the next Broadcast.
func (n *Notify) Wait(p *Proc) {
	n.waiters = append(n.waiters, p)
	p.block()
}

// Broadcast wakes all currently waiting processes.
func (n *Notify) Broadcast() {
	for _, p := range n.waiters {
		n.env.schedule(n.env.now, p)
	}
	n.waiters = nil
}

// WaitGroup counts outstanding activities; Wait blocks until the count
// reaches zero. It is the des analogue of sync.WaitGroup.
type WaitGroup struct {
	env     *Env
	count   int
	waiters []*Proc
}

// NewWaitGroup returns a WaitGroup with count zero.
func NewWaitGroup(env *Env) *WaitGroup { return &WaitGroup{env: env} }

// Add adjusts the count by delta; a count of zero wakes all waiters.
func (w *WaitGroup) Add(delta int) {
	w.count += delta
	if w.count < 0 {
		panic("des: negative WaitGroup count")
	}
	if w.count == 0 {
		for _, p := range w.waiters {
			w.env.schedule(w.env.now, p)
		}
		w.waiters = nil
	}
}

// Done decrements the count.
func (w *WaitGroup) Done() { w.Add(-1) }

// Count returns the current count.
func (w *WaitGroup) Count() int { return w.count }

// Wait blocks until the count is zero.
func (w *WaitGroup) Wait(p *Proc) {
	if w.count == 0 {
		return
	}
	w.waiters = append(w.waiters, p)
	p.block()
}
