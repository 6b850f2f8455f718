package disk

import (
	"testing"

	"crfs/internal/des"
)

func TestSequentialFasterThanRandom(t *testing.T) {
	run := func(random bool) des.Time {
		env := des.New()
		d := New(env, Params{})
		env.Spawn("w", func(p *des.Proc) {
			pos := int64(0)
			for i := 0; i < 100; i++ {
				d.Write(p, pos, 1<<20, "w")
				if random {
					pos += 1 << 30 // 1 GB jumps force seeks
				} else {
					pos += 1 << 20
				}
			}
		})
		end := env.Run()
		env.Shutdown()
		return end
	}
	seq, rnd := run(false), run(true)
	if rnd <= seq {
		t.Fatalf("random (%d) should be slower than sequential (%d)", rnd, seq)
	}
	// 100 MB sequential at 78 MB/s is ~1.28 s.
	if got := des.Seconds(seq); got < 1.2 || got > 1.5 {
		t.Errorf("sequential 100MB took %.2fs, want ~1.28s", got)
	}
}

func TestStatsAndSequentiality(t *testing.T) {
	env := des.New()
	d := New(env, Params{})
	env.Spawn("w", func(p *des.Proc) {
		d.Write(p, 0, 1<<20, "a")           // first op: positioning charged
		d.Write(p, 1<<20, 1<<20, "a")       // sequential
		d.Write(p, 10<<30, 1<<20, "b")      // seek
		d.Write(p, 10<<30+1<<20, 4096, "b") // sequential
	})
	env.Run()
	env.Shutdown()
	st := d.Stats()
	if st.Ops != 4 || st.SeqOps != 2 || st.Seeks != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BytesWritten != 3<<20+4096 {
		t.Fatalf("bytes = %+v", st)
	}
	if s := st.Sequentiality(); s != 0.5 {
		t.Errorf("sequentiality = %v, want 0.5", s)
	}
}

func TestTraceCapture(t *testing.T) {
	env := des.New()
	d := New(env, Params{})
	var ops []Op
	d.Trace = func(op Op) { ops = append(ops, op) }
	env.Spawn("w", func(p *des.Proc) {
		d.Write(p, 100, 200, "t1")
		d.Write(p, 300, 50, "t2")
	})
	env.Run()
	env.Shutdown()
	if len(ops) != 2 {
		t.Fatalf("traced %d ops", len(ops))
	}
	if ops[0].Pos != 100 || ops[0].Len != 200 || ops[0].Tag != "t1" {
		t.Errorf("op0 = %+v", ops[0])
	}
	if ops[1].Seek != 0 {
		t.Errorf("op1 should be sequential (gap 0), seek = %v", ops[1].Seek)
	}
}

func TestFIFOQueueing(t *testing.T) {
	env := des.New()
	d := New(env, Params{})
	var order []string
	for i, name := range []string{"a", "b", "c"} {
		i, name := i, name
		env.SpawnAt(des.Time(i), name, func(p *des.Proc) {
			d.Write(p, 0, 1<<20, name)
			order = append(order, name)
		})
	}
	env.Run()
	env.Shutdown()
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("order = %v", order)
	}
}

func TestZeroLengthNoCost(t *testing.T) {
	env := des.New()
	d := New(env, Params{})
	env.Spawn("w", func(p *des.Proc) { d.Write(p, 0, 0, "w") })
	end := env.Run()
	env.Shutdown()
	if end != 0 || d.Stats().Ops != 0 {
		t.Errorf("zero-length op cost time=%d ops=%d", end, d.Stats().Ops)
	}
}

func TestSeekGrowsWithDistance(t *testing.T) {
	env := des.New()
	d := New(env, Params{})
	var short, long des.Duration
	env.Spawn("w", func(p *des.Proc) {
		d.Write(p, 0, 4096, "w")
		t0 := p.Now()
		d.Write(p, 100<<20, 4096, "w") // 100 MB away
		short = p.Now() - t0
		d.Write(p, 100<<20+4096, 4096, "w") // re-establish position
		t1 := p.Now()
		d.Write(p, 200<<30, 4096, "w") // 200 GB away
		long = p.Now() - t1
	})
	env.Run()
	env.Shutdown()
	if long <= short {
		t.Errorf("long seek (%d) should exceed short seek (%d)", long, short)
	}
}
