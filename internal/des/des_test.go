package des

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestClockAdvances(t *testing.T) {
	env := New()
	var times []Time
	env.Spawn("a", func(p *Proc) {
		p.Wait(10)
		times = append(times, p.Now())
		p.Wait(5)
		times = append(times, p.Now())
	})
	end := env.Run()
	if end != 15 {
		t.Fatalf("end = %d, want 15", end)
	}
	if len(times) != 2 || times[0] != 10 || times[1] != 15 {
		t.Fatalf("times = %v", times)
	}
}

func TestFIFOAtEqualTime(t *testing.T) {
	env := New()
	var order []string
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("p%d", i)
		env.Spawn(name, func(p *Proc) {
			p.Wait(100)
			order = append(order, p.Name())
		})
	}
	env.Run()
	want := []string{"p0", "p1", "p2", "p3", "p4"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []string {
		env := New()
		var log []string
		r := NewResource(env, 2)
		for i := 0; i < 6; i++ {
			i := i
			env.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
				p.Wait(Duration(i % 3))
				r.Acquire(p, 1)
				p.Wait(7)
				log = append(log, fmt.Sprintf("%s@%d", p.Name(), p.Now()))
				r.Release(1)
			})
		}
		env.Run()
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %s vs %s", i, a[i], b[i])
		}
	}
}

func TestResourceFIFOAndContention(t *testing.T) {
	env := New()
	r := NewResource(env, 1)
	var doneAt []Time
	for i := 0; i < 4; i++ {
		env.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			r.Acquire(p, 1)
			p.Wait(10)
			r.Release(1)
			doneAt = append(doneAt, p.Now())
		})
	}
	env.Run()
	want := []Time{10, 20, 30, 40}
	for i := range want {
		if doneAt[i] != want[i] {
			t.Fatalf("doneAt = %v, want %v", doneAt, want)
		}
	}
	if r.MaxQueue != 3 {
		t.Errorf("MaxQueue = %d, want 3", r.MaxQueue)
	}
	if r.Available() != 1 {
		t.Errorf("Available = %d after all released", r.Available())
	}
}

func TestResourceMultiUnit(t *testing.T) {
	env := New()
	r := NewResource(env, 4)
	var got []string
	env.Spawn("big", func(p *Proc) {
		r.Acquire(p, 4)
		p.Wait(10)
		got = append(got, fmt.Sprintf("big@%d", p.Now()))
		r.Release(4)
	})
	env.Spawn("small", func(p *Proc) {
		p.Wait(1)
		r.Acquire(p, 1)
		got = append(got, fmt.Sprintf("small@%d", p.Now()))
		r.Release(1)
	})
	env.Run()
	if len(got) != 2 || got[0] != "big@10" || got[1] != "small@10" {
		t.Fatalf("got = %v", got)
	}
}

func TestResourceUse(t *testing.T) {
	env := New()
	r := NewResource(env, 1)
	var peak int64
	env.Spawn("u", func(p *Proc) {
		r.Use(p, 1, func() {
			peak = r.Available()
			p.Wait(5)
		})
	})
	env.Run()
	if peak != 0 {
		t.Errorf("available during Use = %d, want 0", peak)
	}
	if r.Available() != 1 {
		t.Errorf("available after Use = %d, want 1", r.Available())
	}
}

func TestQueueProducerConsumer(t *testing.T) {
	env := New()
	q := NewQueue(env, 0)
	var consumed []int
	env.Spawn("consumer", func(p *Proc) {
		for {
			item, ok := q.Get(p)
			if !ok {
				return
			}
			p.Wait(3)
			consumed = append(consumed, item.(int))
		}
	})
	env.Spawn("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Wait(1)
			q.Put(p, i)
		}
		q.Close()
	})
	env.Run()
	if len(consumed) != 5 {
		t.Fatalf("consumed %d items", len(consumed))
	}
	for i, v := range consumed {
		if v != i {
			t.Fatalf("consumed = %v", consumed)
		}
	}
}

func TestBoundedQueueBlocksPutter(t *testing.T) {
	env := New()
	q := NewQueue(env, 1)
	var putDone, getStart Time
	env.Spawn("putter", func(p *Proc) {
		q.Put(p, 1) // fills the queue
		q.Put(p, 2) // blocks until the getter drains one
		putDone = p.Now()
	})
	env.Spawn("getter", func(p *Proc) {
		p.Wait(50)
		getStart = p.Now()
		q.Get(p)
		q.Get(p)
	})
	env.Run()
	if putDone < getStart {
		t.Fatalf("putter finished at %d before getter started at %d", putDone, getStart)
	}
}

func TestQueueCloseWakesGetters(t *testing.T) {
	env := New()
	q := NewQueue(env, 0)
	var ok bool = true
	env.Spawn("getter", func(p *Proc) {
		_, ok = q.Get(p)
	})
	env.Spawn("closer", func(p *Proc) {
		p.Wait(5)
		q.Close()
	})
	env.Run()
	if ok {
		t.Error("Get on closed queue returned ok = true")
	}
}

func TestGateBarrier(t *testing.T) {
	env := New()
	g := NewGate(env)
	var released []Time
	for i := 0; i < 3; i++ {
		env.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			g.Wait(p)
			released = append(released, p.Now())
		})
	}
	env.Spawn("firer", func(p *Proc) {
		p.Wait(42)
		g.Fire()
	})
	env.Run()
	if len(released) != 3 {
		t.Fatalf("released %d", len(released))
	}
	for _, at := range released {
		if at != 42 {
			t.Fatalf("released at %v", released)
		}
	}
	// Late waiters pass immediately.
	env2 := New()
	g2 := NewGate(env2)
	g2.Fire()
	var passed bool
	env2.Spawn("late", func(p *Proc) {
		g2.Wait(p)
		passed = true
	})
	env2.Run()
	if !passed {
		t.Error("late waiter did not pass fired gate")
	}
}

func TestNotifyBroadcast(t *testing.T) {
	env := New()
	n := NewNotify(env)
	count := 0
	target := 3
	env.Spawn("waiter", func(p *Proc) {
		for count < target {
			n.Wait(p)
		}
	})
	env.Spawn("poker", func(p *Proc) {
		for i := 0; i < target; i++ {
			p.Wait(10)
			count++
			n.Broadcast()
		}
	})
	end := env.Run()
	if end != 30 {
		t.Fatalf("end = %d", end)
	}
	if env.Live() != 0 {
		t.Fatalf("%d processes still live", env.Live())
	}
}

func TestWaitGroup(t *testing.T) {
	env := New()
	wg := NewWaitGroup(env)
	wg.Add(3)
	var doneAt Time
	env.Spawn("waiter", func(p *Proc) {
		wg.Wait(p)
		doneAt = p.Now()
	})
	for i := 0; i < 3; i++ {
		d := Duration((i + 1) * 10)
		env.Spawn("worker", func(p *Proc) {
			p.Wait(d)
			wg.Done()
		})
	}
	env.Run()
	if doneAt != 30 {
		t.Fatalf("waiter released at %d, want 30", doneAt)
	}
}

func TestShutdownKillsBlocked(t *testing.T) {
	env := New()
	q := NewQueue(env, 0)
	r := NewResource(env, 1)
	env.Spawn("q-blocked", func(p *Proc) { q.Get(p) })
	env.Spawn("r-holder", func(p *Proc) { r.Acquire(p, 1); p.Wait(1000) })
	env.Spawn("r-blocked", func(p *Proc) { p.Wait(1); r.Acquire(p, 1) })
	env.Run()
	if env.Live() == 0 {
		t.Fatal("expected live processes")
	}
	env.Shutdown()
	if env.Live() != 0 {
		t.Fatalf("%d processes survived shutdown", env.Live())
	}
}

func TestSpawnAt(t *testing.T) {
	env := New()
	var at Time
	env.SpawnAt(77, "late", func(p *Proc) { at = p.Now() })
	env.Run()
	if at != 77 {
		t.Fatalf("started at %d", at)
	}
}

func TestSecondsHelper(t *testing.T) {
	if Seconds(1_500_000_000) != 1.5 {
		t.Errorf("Seconds = %v", Seconds(1_500_000_000))
	}
}

// Property: M/M/1-like workload through a Resource conserves work: total
// busy time equals sum of service times, and completion order is FIFO for
// same-arrival ordering.
func TestResourceConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		env := New()
		r := NewResource(env, 1)
		n := 20
		arrivals := make([]Duration, n)
		services := make([]Duration, n)
		var total Duration
		for i := range arrivals {
			arrivals[i] = Duration(rng.Intn(50))
			services[i] = Duration(1 + rng.Intn(20))
			total += services[i]
		}
		type rec struct{ arrive, done Time }
		recs := make([]rec, n)
		for i := 0; i < n; i++ {
			i := i
			env.SpawnAt(arrivals[i], fmt.Sprintf("job%d", i), func(p *Proc) {
				recs[i].arrive = p.Now()
				r.Acquire(p, 1)
				p.Wait(services[i])
				r.Release(1)
				recs[i].done = p.Now()
			})
		}
		end := env.Run()
		// Server can't finish before total work, and not after
		// max(arrival) + total work.
		sort.Slice(recs, func(a, b int) bool { return recs[a].done < recs[b].done })
		if end < total {
			return false
		}
		var maxArr Time
		for _, rec := range recs {
			if rec.arrive > maxArr {
				maxArr = rec.arrive
			}
		}
		return end <= maxArr+total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEventThroughput(b *testing.B) {
	env := New()
	env.Spawn("ticker", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Wait(1)
		}
	})
	b.ResetTimer()
	env.Run()
}

func BenchmarkResourceHandoff(b *testing.B) {
	env := New()
	r := NewResource(env, 1)
	for w := 0; w < 2; w++ {
		env.Spawn("w", func(p *Proc) {
			for i := 0; i < b.N/2; i++ {
				r.Acquire(p, 1)
				p.Wait(1)
				r.Release(1)
			}
		})
	}
	b.ResetTimer()
	env.Run()
}
