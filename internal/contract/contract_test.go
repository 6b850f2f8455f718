// Package contract states CRFS's store contract once and holds every
// front door to it. The contract has four clauses:
//
//  1. Acked bytes survive: a Put or Delete that returned nil is what its
//     name reads until the next one, across restarts and crashes.
//  2. A failure is a typed error, never wrong bytes.
//  3. A failed write never damages the previous version.
//  4. A name reads one complete committed version, even while
//     overwrites race.
//
// One op generator (gen) drives every door, one reference model (model)
// holds what each name may read, and one adapter per door (doors_test.go)
// supplies a vfs.Objects, Restart and, where the door has one, a fault
// hook. crash_test.go replays the doors that sit on a filesystem at every
// mutation boundary, in crashfs's linear and volatile models.
package contract_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"crfs/internal/server"
	"crfs/internal/vfs"
)

// model maps each name to the versions it may read. A nil version is
// absence, what a name reads before its first Put and after a Delete; an
// empty body is a non-nil empty slice. An acked Put or Delete narrows the
// set to its own version, a Put in flight, racing or failed by a fault
// adds its version, and a Put whose body source failed adds nothing. Only
// the goroutine driving the door uses it.
type model struct {
	may map[string][][]byte
	// down, while a fault hook holds a node down, is the typed error the
	// door may report for a name that may be absent, when the down node
	// is the last it asked.
	down error
	// raced, for a door whose racing overwrites can leave its copies of a
	// name disagreeing (the stripe doors: ROADMAP "Divergent manifest
	// copies"), holds the raced names, which a Get does not pin until the
	// next acked Put or Delete; nil for every other door.
	raced map[string]bool
}

func (m *model) versions(name string) [][]byte {
	if v, ok := m.may[name]; ok {
		return slices.Clip(v)
	}
	return [][]byte{nil}
}

func (m *model) set(name string, vs ...[]byte) {
	m.may[name] = vs
	delete(m.raced, name)
}

func (m *model) add(name string, v []byte) { m.may[name] = append(m.versions(name), v) }

// check holds one Get to the contract: nil error and the bytes of a
// version name may read, or, where name may be absent, vfs.ErrNotExist
// (or m.down while a node is down). Every other outcome breaks a clause.
// narrow pins name to the version it read, so a later Get cannot read
// another.
func (m *model) check(name string, got []byte, err error, narrow bool) error {
	may := m.versions(name)
	absent := errors.Is(err, vfs.ErrNotExist) || m.down != nil && errors.Is(err, m.down)
	for _, v := range may {
		if err == nil && v != nil && bytes.Equal(v, got) || v == nil && absent {
			if narrow && !m.raced[name] {
				m.set(name, v)
			}
			return nil
		}
	}
	sizes := make([]int, len(may))
	for i, v := range may {
		if sizes[i] = len(v); v == nil {
			sizes[i] = -1
		}
	}
	return fmt.Errorf("get %s: %d bytes, %v; it may read sizes %v (-1: absent)", name, len(got), err, sizes)
}

type kind int

const (
	kPut     kind = iota // a put or overwrite
	kFail                // a put whose body source fails at cut
	kGet                 // a get, of a never-put name one time in five
	kDelete              // a delete, of a never-put name one time in five
	kList                // a list, which a planted temp must not show in
	kRace                // two overwrites of one name, a longer and a shorter, with gets racing them
	kFault               // the door's fault hook
	kRestart             // Restart, then a get of every name
	kinds
)

var weights = [kinds]int{kPut: 6, kFail: 2, kGet: 4, kDelete: 2, kList: 2, kRace: 2, kFault: 2, kRestart: 1}

type op struct {
	kind kind
	name string
	size int
	cut  int64
}

var (
	names = []string{"a", "dir/b", "dir/sub/c"}
	never = "dir/never"
	// wide are the sizes every door takes: empty, one byte, a wire frame
	// either side, and a body of several core chunks, frames and stripes.
	wide = []int{0, 1, server.DataChunk - 1, server.DataChunk + 1, 4<<20 + 3}
	// cuts are where a failed Put's body source fails: either side of a
	// stripe-mem chunk, a core chunk and a wire frame.
	cuts = []int64{stripeChunk - 1, stripeChunk + 1, coreChunk - 1, coreChunk + 1, server.DataChunk - 1, server.DataChunk + 1}
)

// gen is the one op generator: n ops drawn from rng over names, sizes
// and cuts. A door without a fault hook gets gets in place of faults.
func gen(rng *rand.Rand, n int, sizes []int, faults bool) []op {
	total := 0
	for _, w := range weights {
		total += w
	}
	ops := make([]op, n)
	for i := range ops {
		k, x := kind(0), rng.Intn(total)
		for ; x >= weights[k]; k++ {
			x -= weights[k]
		}
		if k == kFault && !faults {
			k = kGet
		}
		o := op{kind: k, name: names[rng.Intn(len(names))], size: sizes[rng.Intn(len(sizes))], cut: cuts[rng.Intn(len(cuts))]}
		if (k == kGet || k == kDelete) && rng.Intn(5) == 0 {
			o.name = never
		}
		ops[i] = o
	}
	return ops
}

// door is one front door's adapter: the vfs.Objects it serves, and
// Restart, which reopens it over the same durable state.
type door interface {
	vfs.Objects
	Restart(t *testing.T)
}

// faulty is a door with a fault hook: Fault disturbs the door, holds what
// it serves meanwhile to the model, then heals it.
type faulty interface {
	Fault(r *run)
}

// event is one Put or Delete as a crash sweep sees it: the span of the
// durable log it ran over, and the version it leaves (nil: a Delete).
type event struct {
	name       string
	v          []byte
	start, end int
	acked      bool
	source     bool // the body source failed: nothing of it may show
}

// run drives one door, holding every outcome to the model.
type run struct {
	t   *testing.T
	d   door
	rng *rand.Rand
	m   model
	seq int
	// pos, when set, is the door's durable-log length, and hist then
	// records every Put and Delete for a crash sweep.
	pos          func() int
	mu           sync.Mutex
	hist         []event
	saw          [kinds]int
	grew, shrank bool
}

// drive runs n generated ops against d, then restarts it and checks
// every name. Each op kind must have run, and an overwrite must have
// both grown and shrunk a name, or the row proved less than it claims.
func drive(t *testing.T, d door, seed int64, n int, sizes []int, pos func() int) *run {
	_, faults := d.(faulty)
	r := &run{t: t, d: d, rng: rand.New(rand.NewSource(seed)), m: model{may: map[string][][]byte{}}, pos: pos}
	if _, ok := d.(interface{ copiesMayDiverge() }); ok {
		r.m.raced = map[string]bool{}
	}
	for i, o := range gen(r.rng, n, sizes, faults) {
		r.saw[o.kind]++
		r.do(o)
		if t.Failed() {
			t.Fatalf("op %d (%+v) broke the contract", i, o)
		}
	}
	d.Restart(t)
	r.checkAll(true)
	for k, c := range r.saw {
		if c == 0 && weights[k] > 0 && (kind(k) != kFault || faults) {
			t.Errorf("no op of kind %d ran", k)
		}
	}
	if !r.grew || !r.shrank {
		t.Errorf("overwrites grew %v, shrank %v: want both", r.grew, r.shrank)
	}
	return r
}

func (r *run) do(o op) {
	switch o.kind {
	case kPut:
		for _, prev := range r.m.versions(o.name) {
			r.grew = r.grew || prev != nil && o.size > len(prev)
			r.shrank = r.shrank || prev != nil && o.size < len(prev)
		}
		if err := r.put(o.name, r.next(o.size)); err != nil {
			r.t.Errorf("put %s (%d bytes): %v", o.name, o.size, err)
		}
	case kFail:
		v := r.next(int(2 * o.cut))
		err := r.record(event{name: o.name, v: v, source: true}, func() error {
			return r.d.Put(o.name, io.MultiReader(bytes.NewReader(v[:o.cut]), failing{}), int64(len(v)))
		})
		if !errors.Is(err, errSource) {
			r.t.Errorf("put %s failing at %d: %v, want the body source's error", o.name, o.cut, err)
		}
		r.get(o.name, true)
	case kGet:
		r.get(o.name, true)
	case kDelete:
		if err := r.record(event{name: o.name}, func() error { return r.d.Delete(o.name) }); err != nil {
			r.t.Errorf("delete %s: %v", o.name, err)
		} else {
			r.m.set(o.name, nil)
		}
	case kList:
		r.list()
	case kRace:
		prev := r.m.versions(o.name)
		vs := [][]byte{r.next(o.size + 1000), r.next(o.size / 2)}
		errs := make([]error, len(vs))
		var wg sync.WaitGroup
		for i, v := range vs {
			r.m.add(o.name, v)
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = r.record(event{name: o.name, v: v}, func() error { return r.put1(o.name, v) })
			}()
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		for racing := true; racing; {
			select {
			case <-done:
				racing = false
			default:
			}
			r.get(o.name, false)
		}
		var acked [][]byte
		for i, err := range errs {
			if err == nil {
				acked = append(acked, vs[i])
			} else {
				r.t.Errorf("racing put %s: %v", o.name, err)
			}
		}
		if acked == nil {
			acked = prev
		}
		r.m.set(o.name, acked...)
		if r.m.raced != nil {
			r.m.raced[o.name] = true
		}
		r.get(o.name, true)
	case kFault:
		r.d.(faulty).Fault(r)
	case kRestart:
		r.d.Restart(r.t)
		r.checkAll(true)
	}
}

// next returns a fresh version of size bytes, distinct from every other.
func (r *run) next(size int) []byte {
	r.seq++
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(i*7 + r.seq*31 + i>>12)
	}
	return b
}

// record runs a Put or Delete, logging it for a crash sweep.
func (r *run) record(e event, do func() error) error {
	if r.pos != nil {
		e.start = r.pos()
	}
	err := do()
	if r.pos != nil {
		e.end, e.acked = r.pos(), err == nil
		r.mu.Lock()
		r.hist = append(r.hist, e)
		r.mu.Unlock()
	}
	return err
}

// put1 puts v, handing the body over (io.WriterTo) for even versions
// and as a plain reader for odd ones: doors take the two shapes on
// different paths.
func (r *run) put1(name string, v []byte) error {
	var body io.Reader = bytes.NewReader(v)
	if len(v) > 0 && v[0]%2 == 1 {
		body = struct{ io.Reader }{body}
	}
	return r.d.Put(name, body, int64(len(v)))
}

// put puts v under name: acked, it is all name may read; failed, the
// door may or may not have committed it.
func (r *run) put(name string, v []byte) error {
	r.m.add(name, v)
	err := r.record(event{name: name, v: v}, func() error { return r.put1(name, v) })
	if err == nil {
		r.m.set(name, v)
	}
	return err
}

func (r *run) get(name string, narrow bool) {
	var got bytes.Buffer
	n, err := r.d.Get(name, &got)
	if err == nil && n != int64(got.Len()) {
		r.t.Errorf("get %s: returned %d, wrote %d bytes", name, n, got.Len())
	}
	if err := r.m.check(name, got.Bytes(), err, narrow); err != nil {
		r.t.Error(err)
	}
}

// list checks List: sorted, every name that must exist and none that
// must not, and nothing that was never put (a planted temp among them).
func (r *run) list() {
	listed, err := r.d.List()
	if err != nil || !slices.IsSorted(listed) {
		r.t.Errorf("list = %q, %v: want sorted names", listed, err)
		return
	}
	for _, name := range listed {
		if _, ok := r.m.may[name]; !ok {
			r.t.Errorf("list shows %s, which was never put", name)
		}
	}
	for name, may := range r.m.may {
		absent := slices.ContainsFunc(may, func(v []byte) bool { return v == nil })
		present := slices.ContainsFunc(may, func(v []byte) bool { return v != nil })
		if in := slices.Contains(listed, name); in && !present || !in && !absent {
			r.t.Errorf("list shows %s: %v; it may read %d versions (absent %v)", name, in, len(may), absent)
		}
	}
}

// checkAll gets every name, and one never put, then lists.
func (r *run) checkAll(narrow bool) {
	for _, name := range append(slices.Clone(names), never) {
		r.get(name, narrow)
	}
	r.list()
}

var errSource = errors.New("contract: body source failed")

// failing is the end of a failed Put's body source.
type failing struct{}

func (failing) Read([]byte) (int, error) { return 0, errSource }

// TestContract drives every front door through the generated ops.
func TestContract(t *testing.T) {
	for _, row := range []struct {
		name string
		open func(t *testing.T) door
		seed int64
		ops  int
	}{
		{"mount-raw", func(t *testing.T) door { return newMount(t, false, nil) }, 1, 40},
		{"mount-deflate", func(t *testing.T) door { return newMount(t, true, nil) }, 2, 40},
		{"crfsd", func(t *testing.T) door { return newDaemon(t, nil) }, 3, 40},
		{"stripe-mem", newStripeMem, 42, 120},
		{"stripe-daemons", newStripeDaemons, 5, 40},
		{"stripe-mounts", newStripeMounts, 7, 40},
	} {
		t.Run(row.name, func(t *testing.T) {
			drive(t, row.open(t), row.seed, row.ops, wide, nil)
		})
	}
}
