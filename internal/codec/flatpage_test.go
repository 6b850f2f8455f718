package codec

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fullHistogram is the classifier without the sample: Σcount² over the
// whole page's byte histogram, counted in four interleaved tables, under
// flatLimit. It is the reference the sampled verdict is compared with, and
// the full path BenchmarkFlatPage times.
func fullHistogram(p []byte) bool {
	var h [4][256]uint32
	for i := 0; i < pageSize; i += 4 {
		h[0][p[i]]++
		h[1][p[i+1]]++
		h[2][p[i+2]]++
		h[3][p[i+3]]++
	}
	sum := 0
	for b := range h[0] {
		n := int(h[0][b] + h[1][b] + h[2][b] + h[3][b])
		sum += n * n
	}
	return sum < flatLimit
}

// fullVerdict is flatFull's verdict on the page p begins with, given the
// counts of its sampled slices: what flatPage gives a page whose sample
// falls between sampleFlat and sampleSolid.
func fullVerdict(p []byte) bool {
	var h [256]uint16
	for off := 0; off < pageSize; off += sampleStride {
		for _, b := range p[off : off+sliceLen] {
			h[b]++
		}
	}
	return flatFull(p, &h)
}

// disagreements counts the full pages of src the sample calls flat and
// the full histogram does not (falseFlat), and the reverse (missedFlat).
// It fails the test if flatFull, given the sample's counts, disagrees
// with fullHistogram.
func disagreements(t *testing.T, src []byte) (pages, falseFlat, missedFlat int) {
	t.Helper()
	for off := 0; off+pageSize <= len(src); off += pageSize {
		p := src[off:]
		full := fullHistogram(p)
		if fullVerdict(p) != full {
			t.Fatalf("page at %d: flatFull says %v, the whole page's histogram %v", off, !full, full)
		}
		switch sampled := flatPage(p); {
		case sampled && !full:
			falseFlat++
		case !sampled && full:
			missedFlat++
		}
		pages++
	}
	return pages, falseFlat, missedFlat
}

// encodedSize is the length of the deflate payload of src when flat
// decides which full pages are flat, laid out as Encode lays it out.
func encodedSize(src []byte, flat func([]byte) bool) int {
	bitmap := make([]byte, (len(src)+8*pageSize-1)/(8*pageSize))
	stored := 0
	for off := 0; off+pageSize <= len(src); off += pageSize {
		if i := off / pageSize; flat(src[off:]) {
			bitmap[i/8] |= 1 << (i % 8)
			stored += pageSize
		}
	}
	if stored == 0 {
		return len(new(encoder).stream(nil, src, nil))
	}
	if stored == len(src) {
		return 1 + len(bitmap) + stored
	}
	return 1 + len(bitmap) + stored + len(new(encoder).stream(nil, src, bitmap))
}

// TestSampledClassifierAgrees compares the sampled verdict with the full
// histogram's on every full page of each corpus. They agree on every page
// but 4 of the 20,000 pages of two copies of one 2 KiB block, which the
// sample calls flat and the full histogram, by a hair, does not. The test
// binary changes with every build, so its disagreements are logged, not
// pinned; its payload must stay within 0.5 % of the size the full
// histogram's verdicts give.
func TestSampledClassifierAgrees(t *testing.T) {
	if raceEnabled() {
		t.Skip("one goroutine's arithmetic: the race detector only slows it")
	}
	type corpus struct {
		name                  string
		src                   []byte
		falseFlat, missedFlat int
	}
	var corpora []corpus
	golden := goldenFixtures(t)
	delete(golden, "content.want")
	for name, box := range frozenFixtures(t) {
		golden["frozen/"+name] = box
	}
	for name, box := range golden {
		frames, _, _ := ScanPrefix(bytes.NewReader(box), int64(len(box))) // a torn tail ends the scan
		for i, fr := range frames {
			raw, err := DecodeFrame(fr.Header, box[fr.Pos+HeaderSize:fr.End()], nil)
			if err != nil {
				continue // the bit-rot fixtures' flipped frame
			}
			corpora = append(corpora, corpus{name: fmt.Sprintf("golden/%s/frame-%d", name, i), src: raw})
		}
	}
	var gosrc []byte
	files, err := filepath.Glob("*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("the package's sources: %v", err)
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		gosrc = append(gosrc, b...)
	}
	corpora = append(corpora,
		corpus{name: "go-sources", src: gosrc},
		corpus{name: "entropy-0.5-4MiB", src: pages(strings.Repeat("RT", 512), 1)},
		corpus{name: "compressible-1MiB", src: compressible(1<<20, 9)},
	)
	for _, s := range rateShapes() {
		c := corpus{name: "rates/" + s.name, src: s.pages(s.trials)}
		if s.name == "2×2 KiB" {
			c.falseFlat = 4
		}
		corpora = append(corpora, c)
	}
	for _, c := range corpora {
		n, falseFlat, missedFlat := disagreements(t, c.src)
		if falseFlat != c.falseFlat || missedFlat != c.missedFlat {
			t.Errorf("%s: of %d pages, %d read flat only to the sample and %d only to the full histogram, want %d and %d",
				c.name, n, falseFlat, missedFlat, c.falseFlat, c.missedFlat)
		}
	}

	bin := executable(t, 4<<20)
	n, falseFlat, missedFlat := disagreements(t, bin)
	sampled, full := encodedSize(bin, flatPage), encodedSize(bin, fullHistogram)
	if enc, _ := Deflate().Encode(nil, bin); len(enc) != sampled {
		t.Fatalf("Encode wrote %d bytes of the test binary, encodedSize says %d", len(enc), sampled)
	}
	t.Logf("executable-4MiB: of %d pages, %d read flat only to the sample, %d only to the full histogram; "+
		"%d bytes encoded, %d with the full histogram's verdicts (%+.3f %%)",
		n, falseFlat, missedFlat, sampled, full, 100*(float64(sampled)/float64(full)-1))
	if d := sampled - full; 200*max(d, -d) > full {
		t.Errorf("the sample moved the test binary's encoded size by %d bytes, over 0.5 %% of %d", d, full)
	}
}

// foolingPage is a page built against the sample: its sampled slices
// random and every other byte zero when sampleRandom, else the reverse.
func foolingPage(sampleRandom bool) []byte {
	p := incompressible(pageSize, 43)
	for off := 0; off < pageSize; off += sampleStride {
		if sampleRandom {
			clear(p[off+sliceLen : off+sampleStride])
		} else {
			clear(p[off : off+sliceLen])
		}
	}
	return p
}

// TestPagesBuiltToFoolTheSample pins the verdicts on the two pages built
// against the sample, and round-trips each alone and beside a text page.
// A random sample over zeros reads flat though its histogram is far from
// even: the page is kept verbatim, which costs size and never bytes. A
// zero sample over random bytes reads not flat, as its histogram does.
func TestPagesBuiltToFoolTheSample(t *testing.T) {
	for _, tc := range []struct {
		name          string
		sampleRandom  bool
		sampled, full bool
	}{
		{"random-sample-zero-rest", true, true, false},
		{"zero-sample-random-rest", false, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := foolingPage(tc.sampleRandom)
			if got := flatPage(p); got != tc.sampled {
				t.Errorf("flatPage = %v, pinned %v", got, tc.sampled)
			}
			if got := fullHistogram(p); got != tc.full {
				t.Errorf("the full histogram says %v, pinned %v", got, tc.full)
			}
			spliceRoundTrip(t, p)
			spliceRoundTrip(t, append(pages("T", 1), p...))
		})
	}
}

var flatSink bool

// BenchmarkFlatPage times the classifier per page, sampled (flatPage) and
// full (fullHistogram), on random, text, zero, two-copies-of-2-KiB and
// test-binary pages. A 2×2 KiB page's sample falls between sampleFlat and
// sampleSolid, so its sampled path is the sample and then flatFull.
func BenchmarkFlatPage(b *testing.B) {
	const n = 64
	shapes := []struct {
		name string
		src  []byte
	}{
		{"random", incompressible(n*pageSize, 1)},
		{"text", pages(strings.Repeat("T", n), 1)},
		{"zero", make([]byte, n*pageSize)},
		{"2x2KiB", rateShape{fill: repeats(rand.New(rand.NewSource(1)), 2048)}.pages(n)},
		{"binary", executable(b, 4<<20)},
	}
	for _, s := range shapes {
		np := len(s.src) / pageSize
		for _, path := range []struct {
			name string
			flat func([]byte) bool
		}{{"sampled", flatPage}, {"full", fullHistogram}} {
			b.Run(s.name+"/"+path.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					flatSink = path.flat(s.src[i%np*pageSize:])
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/page")
			})
		}
	}
}
