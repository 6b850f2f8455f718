// Package freelist recycles fixed-size byte buffers, and poisons every
// buffer the process recycles when a test asks it to.
package freelist

import (
	"sync"
	"sync/atomic"
)

// List is a stack of idle size-byte buffers that keeps at most keep of
// them. A buffer has one holder at a time: whoever took it from Get or
// was handed it. The last holder gives it back with Put and touches it
// no more, which is why the list needs no reference counts. The buffer
// given back last is handed out next, so a steady load cycles through
// the buffers in flight rather than every buffer the list keeps.
//
// A List is made by New and must not be copied after first use.
type List struct {
	mu   sync.Mutex
	idle [][]byte // capacity keep; never grown
	size int
	// held counts the size-byte buffers out now and high the most ever
	// out at once; both change under mu.
	held, high atomic.Int32
}

// New returns a List of size-byte buffers that keeps at most keep idle.
func New(size, keep int) List {
	return List{idle: make([][]byte, 0, keep), size: size}
}

// Get returns a buffer of length n that the caller holds until Put. For
// n up to size it is an idle buffer, or a new one of capacity size when
// none is idle; a larger n gets a one-off the list does not count, and
// n = 0 gets nil.
func (l *List) Get(n int) []byte {
	if n == 0 {
		return nil
	}
	if n > l.size {
		return make([]byte, n)
	}
	var b []byte
	l.mu.Lock()
	if h := l.held.Add(1); h > l.high.Load() {
		l.high.Store(h)
	}
	if last := len(l.idle) - 1; last >= 0 {
		b = l.idle[last]
		l.idle = l.idle[:last]
	}
	l.mu.Unlock()
	if b == nil {
		b = make([]byte, l.size)
	}
	return b[:n]
}

// Put gives b back, poisoned (see Poison). A buffer whose capacity is
// not size — a one-off, nil — is left to the collector, and so is one
// the list has no room to keep.
func (l *List) Put(b []byte) {
	if cap(b) != l.size {
		return
	}
	b = b[:l.size]
	Poison(b)
	l.mu.Lock()
	l.held.Add(-1)
	if len(l.idle) < cap(l.idle) {
		l.idle = append(l.idle, b)
	}
	l.mu.Unlock()
}

// Held reports how many of the list's buffers are out now.
func (l *List) Held() int { return int(l.held.Load()) }

// HighWater reports the most of the list's buffers ever out at once.
func (l *List) HighWater() int { return int(l.high.Load()) }

var poison atomic.Bool

// SetPoison turns poisoning on or off for the whole process. Test
// binaries turn it on in TestMain.
func SetPoison(on bool) { poison.Store(on) }

// Poison fills b with 0xDB while poisoning is on, so a holder that kept
// reading a buffer after giving it up sees bytes no content check
// accepts instead of plausible ones.
func Poison(b []byte) {
	if !poison.Load() || len(b) == 0 {
		return
	}
	b[0] = 0xDB
	for n := 1; n < len(b); n *= 2 {
		copy(b[n:], b[:n])
	}
}
