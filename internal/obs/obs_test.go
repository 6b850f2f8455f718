package obs

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestDisabledSpanIsFree(t *testing.T) {
	tr := New(16)
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.Start("op")
		sp.Attr("k", "v")
		sp.AttrInt("n", 42)
		_ = sp.Context()
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled span path allocated %.1f times per op, want 0", allocs)
	}
	var nilTracer *Tracer
	if nilTracer.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	sp := nilTracer.Start("op")
	sp.End() // must not panic
	if got := nilTracer.Snapshot(); got != nil {
		t.Fatalf("nil tracer snapshot = %v, want nil", got)
	}
}

func TestSpanTree(t *testing.T) {
	tr := New(64)
	tr.SetEnabled(true)
	tr.SetProcess("test")

	root := tr.Start("root")
	root.Attr("file", "ckpt.img")
	child := tr.StartChild("child", root.Context())
	grand := tr.StartChild("grand", child.Context())
	grand.End()
	child.End()
	root.End()

	recs := tr.Snapshot()
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	byName := map[string]SpanRecord{}
	for _, r := range recs {
		byName[r.Name] = r
		if r.Proc != "test" {
			t.Errorf("span %s proc = %q, want test", r.Name, r.Proc)
		}
	}
	rt, ch, gr := byName["root"], byName["child"], byName["grand"]
	if rt.Trace == 0 || ch.Trace != rt.Trace || gr.Trace != rt.Trace {
		t.Fatalf("trace IDs not shared: root=%x child=%x grand=%x", rt.Trace, ch.Trace, gr.Trace)
	}
	if rt.Parent != 0 {
		t.Errorf("root parent = %x, want 0", rt.Parent)
	}
	if ch.Parent != rt.ID || gr.Parent != ch.ID {
		t.Errorf("parent chain broken: child.parent=%x root=%x grand.parent=%x child=%x",
			ch.Parent, rt.ID, gr.Parent, ch.ID)
	}
	if len(rt.Attrs) != 1 || rt.Attrs[0] != (Attr{"file", "ckpt.img"}) {
		t.Errorf("root attrs = %v", rt.Attrs)
	}
	if got := tr.TraceSpans(rt.Trace); len(got) != 3 {
		t.Errorf("TraceSpans found %d records, want 3", len(got))
	}
	if got := tr.TraceSpans(rt.Trace + 999); len(got) != 0 {
		t.Errorf("TraceSpans for unknown trace found %d records", len(got))
	}
}

func TestStartRemoteJoinsTrace(t *testing.T) {
	tr := New(16)
	tr.SetEnabled(true)
	sp := tr.StartRemote("remote", TraceID(0xabcd))
	sp.End()
	recs := tr.Snapshot()
	if len(recs) != 1 || recs[0].Trace != 0xabcd || recs[0].Parent != 0 {
		t.Fatalf("remote span = %+v, want trace abcd, parent 0", recs)
	}
	// Zero trace degrades to a fresh root.
	sp = tr.StartRemote("fresh", 0)
	sp.End()
	recs = tr.Snapshot()
	if recs[1].Trace == 0 {
		t.Fatal("StartRemote(0) minted no trace ID")
	}
}

// TestRingEviction: a full ring keeps the newest spans, oldest first, and
// counts every span it overwrote.
func TestRingEviction(t *testing.T) {
	tr := New(4)
	tr.SetEnabled(true)
	for i := 0; i < 10; i++ {
		sp := tr.Start(fmt.Sprintf("op%d", i))
		sp.End()
		if i == 3 && tr.Overwritten() != 0 {
			t.Errorf("a ring of 4 holding 4 spans reports %d overwritten, want 0", tr.Overwritten())
		}
	}
	if got := tr.Overwritten(); got != 6 {
		t.Errorf("Overwritten() = %d after 10 spans through a ring of 4, want 6", got)
	}
	var nilTracer *Tracer
	if got := nilTracer.Overwritten(); got != 0 {
		t.Errorf("nil tracer: Overwritten() = %d, want 0", got)
	}
	recs := tr.Snapshot()
	if len(recs) != 4 {
		t.Fatalf("ring holds %d, want 4", len(recs))
	}
	for i, r := range recs {
		want := fmt.Sprintf("op%d", 6+i)
		if r.Name != want {
			t.Errorf("ring[%d] = %s, want %s (oldest-first order)", i, r.Name, want)
		}
	}
}

func TestAttrOverflowDropped(t *testing.T) {
	tr := New(4)
	tr.SetEnabled(true)
	sp := tr.Start("op")
	for i := 0; i < maxAttrs+3; i++ {
		sp.Attr(fmt.Sprintf("k%d", i), "v")
	}
	sp.End()
	recs := tr.Snapshot()
	if len(recs[0].Attrs) != maxAttrs {
		t.Fatalf("got %d attrs, want %d", len(recs[0].Attrs), maxAttrs)
	}
}

func TestSlowOpLog(t *testing.T) {
	tr := New(16)
	tr.SetEnabled(true)
	tr.SetSlowThreshold(time.Microsecond)
	var mu sync.Mutex
	var logged []string
	tr.SetLogf(func(format string, args ...any) {
		mu.Lock()
		logged = append(logged, fmt.Sprintf(format, args...))
		mu.Unlock()
	})
	root := tr.Start("slowroot")
	child := tr.StartChild("slowchild", root.Context())
	time.Sleep(2 * time.Millisecond)
	child.End()
	root.End()
	mu.Lock()
	defer mu.Unlock()
	if len(logged) != 1 {
		t.Fatalf("slow log fired %d times, want 1 (root only): %v", len(logged), logged)
	}
	if !strings.Contains(logged[0], "slowroot") || !strings.Contains(logged[0], "slowchild") {
		t.Errorf("slow log missing tree nodes: %q", logged[0])
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram([]int64{10, 100, 1000})
	for _, v := range []int64{1, 5, 10, 50, 100, 500, 1000, 5000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// le=10: {1,5,10}; le=100: {50,100}; le=1000: {500,1000}; +Inf: {5000}.
	want := []int64{3, 2, 2, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, s.Counts[i], w)
		}
	}
	if s.Count != 8 {
		t.Errorf("count = %d, want 8", s.Count)
	}
	if s.Sum != 1+5+10+50+100+500+1000+5000 {
		t.Errorf("sum = %d", s.Sum)
	}
}

func TestHistogramMerge(t *testing.T) {
	bounds := []int64{10, 100, 1000}
	a, b, total := NewHistogram(bounds), NewHistogram(bounds), NewHistogram(bounds)
	for _, v := range []int64{1, 50, 5000} {
		a.Observe(v)
	}
	for _, v := range []int64{7, 10, 999} {
		b.Observe(v)
	}
	total.Merge(a)
	total.Merge(b)
	s := total.Snapshot()
	if len(s.Counts) != len(bounds)+1 {
		t.Fatalf("snapshot has %d buckets, want %d", len(s.Counts), len(bounds)+1)
	}
	for i, w := range []int64{3, 1, 1, 1} {
		if s.Counts[i] != w {
			t.Errorf("merged bucket %d = %d, want %d", i, s.Counts[i], w)
		}
	}
	if s.Count != 6 || s.Sum != 1+50+5000+7+10+999 {
		t.Errorf("merged count=%d sum=%d", s.Count, s.Sum)
	}
}

func TestHistogramObserveNoAlloc(t *testing.T) {
	h := NewHistogram(LatencyBounds)
	allocs := testing.AllocsPerRun(1000, func() { h.Observe(123456) })
	if allocs != 0 {
		t.Fatalf("Observe allocated %.1f times per op, want 0", allocs)
	}
}

func TestConcurrentStress(t *testing.T) {
	tr := New(256)
	tr.SetEnabled(true)
	h := NewHistogram(LatencyBounds)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				root := tr.Start("stress")
				child := tr.StartChild("stresschild", root.Context())
				h.Observe(int64(i * g))
				child.End()
				root.End()
				if i%100 == 0 {
					tr.Snapshot()
					h.Snapshot()
				}
			}
		}(g)
	}
	// Flip enabled concurrently: spans started while enabled must still
	// End safely after a disable.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			tr.SetEnabled(i%2 == 0)
		}
	}()
	wg.Wait()
	tr.SetEnabled(true)
	s := h.Snapshot()
	if s.Count != 8*500 {
		t.Fatalf("histogram lost observations: %d, want %d", s.Count, 8*500)
	}
}

func TestRecordsRoundTrip(t *testing.T) {
	tr := New(16)
	tr.SetEnabled(true)
	tr.SetProcess("proc-a")
	sp := tr.Start("op")
	sp.AttrInt("bytes", 4096)
	sp.End()
	recs := tr.Snapshot()
	data, err := MarshalRecords(recs)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseRecords(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0].Trace != recs[0].Trace || back[0].ID != recs[0].ID ||
		back[0].Name != recs[0].Name || back[0].Proc != recs[0].Proc ||
		back[0].Start != recs[0].Start || back[0].Dur != recs[0].Dur ||
		len(back[0].Attrs) != len(recs[0].Attrs) || back[0].Attrs[0] != recs[0].Attrs[0] {
		t.Fatalf("round trip mismatch: %+v vs %+v", back, recs)
	}
	if _, err := ParseRecords([]byte("{not an array")); err == nil {
		t.Fatal("ParseRecords accepted garbage")
	}
}

func TestChromeTrace(t *testing.T) {
	mk := func(proc, name string, trace TraceID, id, parent SpanID) SpanRecord {
		return SpanRecord{
			Trace: trace, ID: id, Parent: parent, Name: name, Proc: proc,
			Start: 1_000_000_000, Dur: 2_500,
			Attrs: []Attr{{"node", "n1"}},
		}
	}
	recs := []SpanRecord{
		mk("crfscp", "stripe.put", 7, 1, 0),
		mk("crfsd:a", "crfsd.PUT", 7, 2, 0),
		mk("crfsd:b", "crfsd.PUT", 7, 3, 0),
	}
	out := ChromeTrace(recs)
	var events []map[string]any
	if err := json.Unmarshal(out, &events); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, out)
	}
	var meta, complete int
	pids := map[float64]bool{}
	for _, ev := range events {
		switch ev["ph"] {
		case "M":
			meta++
		case "X":
			complete++
			pids[ev["pid"].(float64)] = true
			args := ev["args"].(map[string]any)
			if args["trace"] != fmt.Sprintf("%016x", uint64(7)) {
				t.Errorf("event trace arg = %v", args["trace"])
			}
			if ev["ts"].(float64) != 1_000_000 { // ns → µs
				t.Errorf("ts = %v, want 1000000", ev["ts"])
			}
		}
	}
	if meta != 3 || complete != 3 {
		t.Fatalf("got %d metadata + %d complete events, want 3+3", meta, complete)
	}
	if len(pids) != 3 {
		t.Fatalf("spans spread over %d pids, want 3 (one per proc)", len(pids))
	}
}
