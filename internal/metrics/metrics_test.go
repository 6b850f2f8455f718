package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"crfs/internal/des"
)

func TestBucketIndex(t *testing.T) {
	cases := []struct {
		n    int64
		want int
	}{
		{1, 0}, {64, 0}, {65, 1}, {256, 1}, {1024, 2}, {4096, 3},
		{4097, 4}, {16 << 10, 4}, {1 << 20, 8}, {1<<20 + 1, 9}, {1 << 30, 9},
	}
	for _, c := range cases {
		if got := BucketIndex(c.n); got != c.want {
			t.Errorf("BucketIndex(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestHistogramSumsTo100(t *testing.T) {
	logs := []*ProcLog{{
		Writes: []WriteRec{
			{Size: 32, Dur: des.Microsecond},
			{Size: 8192, Dur: des.Millisecond},
			{Size: 2 << 20, Dur: 10 * des.Millisecond},
		},
	}}
	rows := Histogram(logs)
	var w, d, tm float64
	for _, r := range rows {
		w += r.PctWrite
		d += r.PctData
		tm += r.PctTime
	}
	for name, v := range map[string]float64{"writes": w, "data": d, "time": tm} {
		if math.Abs(v-100) > 0.01 {
			t.Errorf("%%%s sums to %.2f", name, v)
		}
	}
}

func TestHistogramEmpty(t *testing.T) {
	rows := Histogram(nil)
	for _, r := range rows {
		if r.PctWrite != 0 || r.PctData != 0 || r.PctTime != 0 {
			t.Errorf("empty histogram has non-zero row %+v", r)
		}
	}
}

func TestCumulativeCurveMonotone(t *testing.T) {
	f := func(sizes []uint16) bool {
		pl := &ProcLog{}
		for _, s := range sizes {
			pl.Writes = append(pl.Writes, WriteRec{Size: int64(s) + 1, Dur: des.Duration(s)})
		}
		curve := CumulativeCurve(pl)
		var lastSize int64 = -1
		var lastCum float64 = -1
		for _, pt := range curve {
			if pt.Size <= lastSize || pt.CumTime < lastCum {
				return false
			}
			lastSize, lastCum = pt.Size, pt.CumTime
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.N != 4 || s.Mean != 2.5 || s.Min != 1 || s.Max != 4 {
		t.Fatalf("summary = %+v", s)
	}
	if math.Abs(s.Std-math.Sqrt(1.25)) > 1e-9 {
		t.Errorf("std = %v", s.Std)
	}
	if s.Spread() != 3 {
		t.Errorf("spread = %v", s.Spread())
	}
	if z := Summarize(nil); z.N != 0 {
		t.Errorf("empty summary = %+v", z)
	}
}

func TestProcLogHelpers(t *testing.T) {
	pl := &ProcLog{Start: des.Second, End: 3 * des.Second,
		Writes: []WriteRec{{Size: 10}, {Size: 20}}}
	if pl.Duration() != 2*des.Second {
		t.Errorf("duration = %d", pl.Duration())
	}
	if pl.TotalBytes() != 30 {
		t.Errorf("bytes = %d", pl.TotalBytes())
	}
	times := WriteTimes([]*ProcLog{pl})
	if len(times) != 1 || times[0] != 2.0 {
		t.Errorf("WriteTimes = %v", times)
	}
}
