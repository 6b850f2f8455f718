package freelist

import (
	"bytes"
	"testing"
)

// TestKeepCap: a list keeps at most keep idle buffers; the rest are left
// to the collector, so the next Gets past keep allocate.
func TestKeepCap(t *testing.T) {
	l := New(64, 2)
	var out [][]byte
	for range 4 {
		out = append(out, l.Get(64))
	}
	for _, b := range out {
		l.Put(b)
	}
	if n := len(l.idle); n != 2 {
		t.Fatalf("%d idle buffers after four Puts, want keep = 2", n)
	}
	a, b := l.Get(64), l.Get(64)
	if &a[0] != &out[1][0] || &b[0] != &out[0][0] {
		t.Error("Get did not hand out the kept buffers, last given back first")
	}
	if c := l.Get(64); &c[0] == &out[2][0] || &c[0] == &out[3][0] {
		t.Error("a buffer given back past keep came back")
	}
}

// TestGetSizes: Get(n) returns n bytes; n up to size rides a size-byte
// buffer the list counts, a larger n is a one-off it does not, and 0 is
// nil.
func TestGetSizes(t *testing.T) {
	l := New(64, 2)
	if b := l.Get(0); b != nil {
		t.Errorf("Get(0) = %d bytes, want nil", len(b))
	}
	if b := l.Get(10); len(b) != 10 || cap(b) != 64 {
		t.Errorf("Get(10): len %d cap %d, want 10 and 64", len(b), cap(b))
	} else {
		l.Put(b)
	}
	big := l.Get(65)
	if len(big) != 65 {
		t.Errorf("Get(65) = %d bytes", len(big))
	}
	if l.Held() != 0 {
		t.Errorf("Held = %d after a zero and an oversize Get, want 0", l.Held())
	}
	l.Put(big)
	if l.Held() != 0 || len(l.idle) != 1 {
		t.Errorf("oversize Put: Held %d, %d idle; want 0 and 1", l.Held(), len(l.idle))
	}
}

// TestForeignPut: a buffer of another capacity is not taken in and does
// not move the gauges.
func TestForeignPut(t *testing.T) {
	l := New(64, 2)
	b := l.Get(64)
	l.Put(make([]byte, 64, 128))
	l.Put(nil)
	if l.Held() != 1 || len(l.idle) != 0 {
		t.Errorf("after foreign Puts: Held %d, %d idle; want 1 and 0", l.Held(), len(l.idle))
	}
	l.Put(b)
	if l.Held() != 0 {
		t.Errorf("Held = %d, want 0", l.Held())
	}
}

// TestGauges: Held counts the buffers out now and HighWater the most
// ever out at once, idle or freshly allocated alike.
func TestGauges(t *testing.T) {
	l := New(64, 1)
	a, b, c := l.Get(64), l.Get(1), l.Get(64)
	l.Put(b)
	if l.Held() != 2 || l.HighWater() != 3 {
		t.Fatalf("Held %d HighWater %d, want 2 and 3", l.Held(), l.HighWater())
	}
	l.Put(a)
	l.Put(c)
	d := l.Get(64)
	if l.Held() != 1 || l.HighWater() != 3 {
		t.Errorf("Held %d HighWater %d, want 1 and 3", l.Held(), l.HighWater())
	}
	l.Put(d)
}

// TestPoison: with poisoning on, Put fills the whole buffer with 0xDB,
// past the length it was handed out at; off, it leaves the bytes alone.
func TestPoison(t *testing.T) {
	defer SetPoison(poison.Load())
	l := New(100, 1)
	for _, on := range []bool{false, true} {
		SetPoison(on)
		b := l.Get(100)
		copy(b, bytes.Repeat([]byte{7}, 100))
		l.Put(b[:3])
		want := byte(7)
		if on {
			want = 0xDB
		}
		if !bytes.Equal(b, bytes.Repeat([]byte{want}, 100)) {
			t.Errorf("poison %v: buffer reads %x after Put", on, b)
		}
	}
	Poison(nil) // no bytes, no panic
}
