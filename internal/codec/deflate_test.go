package codec

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"testing"
)

// pages builds a payload one 4 KiB page per letter of kinds: 'T' a page of
// repetitive text (the repository benchmark's odd pages), 'R' a page of
// random bytes (its even pages), 'Z' a page of zeros.
func pages(kinds string, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, len(kinds)*pageSize)
	for i, k := range kinds {
		p := out[i*pageSize : (i+1)*pageSize]
		switch k {
		case 'R':
			rng.Read(p)
		case 'T':
			textPage(p, i)
		}
	}
	return out
}

func textPage(p []byte, n int) {
	line := fmt.Sprintf("vma %08d: registers heap stack signal state\n", n)
	for i := 0; i < len(p); i += copy(p[i:], line) {
	}
}

// inflate reads a raw DEFLATE stream back through a bare stdlib reader,
// which must end the stream on its last byte.
func inflate(t testing.TB, stream []byte) []byte {
	t.Helper()
	r := bytes.NewReader(stream)
	got, err := io.ReadAll(flate.NewReader(r))
	if err != nil {
		t.Fatalf("bare flate reader: %v", err)
	}
	if r.Len() != 0 {
		t.Fatalf("bare flate reader: the stream ends %d bytes before the payload does", r.Len())
	}
	return got
}

// spliceRoundTrip encodes src with the deflate codec and as a v2 frame. A
// src with a flat page must come out paged: pagedTag, a bitmap that marks
// exactly the pages the classifier calls flat, each flat page verbatim at
// its computed offset, and then a stream that a bare flate reader inflates
// to the other pages, in order. A src without one must be a stream that
// inflates to src. DecodeFrame must give src back either way. It returns
// the frame's header.
func spliceRoundTrip(t *testing.T, src []byte) Header {
	t.Helper()
	payload, err := Deflate().Encode(nil, src)
	if err != nil {
		t.Fatal(err)
	}
	var stored, deflated []byte // the flat pages, and every other byte of src
	for off := 0; off < len(src); off += pageSize {
		if p := src[off:min(off+pageSize, len(src))]; len(p) == pageSize && flatPage(p) {
			stored = append(stored, p...)
		} else {
			deflated = append(deflated, p...)
		}
	}
	stream := payload
	if len(stored) > 0 {
		n := (len(src) + 8*pageSize - 1) / (8 * pageSize)
		if len(payload) < 1+n+len(stored) || payload[0] != pagedTag {
			t.Fatalf("%d flat bytes, but the %d-byte payload is not paged", len(stored), len(payload))
		}
		for i := 0; i < 8*n; i++ {
			off := i * pageSize
			flat := off+pageSize <= len(src) && flatPage(src[off:])
			if bit := payload[1+i/8]>>(i%8)&1 == 1; bit != flat {
				t.Fatalf("bitmap bit %d is %v, page %d flat is %v", i, bit, i, flat)
			}
		}
		for k := 0; k < len(stored); k += pageSize {
			if at := 1 + n + k; !bytes.Equal(payload[at:at+pageSize], stored[k:k+pageSize]) {
				t.Fatalf("flat page %d is not verbatim at payload offset %d", k/pageSize, at)
			}
		}
		stream = payload[1+n+len(stored):]
		if len(deflated) == 0 && len(stream) != 0 {
			t.Fatalf("every page is flat, yet a %d-byte stream follows them", len(stream))
		}
	}
	if len(deflated) > 0 || len(stored) == 0 {
		if got := inflate(t, stream); !bytes.Equal(got, deflated) {
			t.Fatalf("bare flate reader: %d bytes back, want the %d deflated", len(got), len(deflated))
		}
	}
	frame, h, err := EncodeFrame(Deflate(), 0, 0, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if h.EncLen > h.RawLen {
		t.Fatalf("frame grew the payload: EncLen %d > RawLen %d", h.EncLen, h.RawLen)
	}
	got, err := DecodeFrame(h, frame[HeaderSize:], nil)
	if err != nil || !bytes.Equal(got, src) {
		t.Fatalf("DecodeFrame: %d bytes back, want %d: %v", len(got), len(src), err)
	}
	if h.Codec == DeflateID && !bytes.Equal(frame[HeaderSize:], payload) {
		t.Fatal("the frame's payload is not what Encode wrote")
	}
	return h
}

// TestSpliceRoundTrip covers the page mixes a paged payload must get
// right: where the flat pages sit, a frame the raw bailout takes, a
// partial page, a long flat run, a bitmap whose last byte is part used,
// a chunk the size an IO worker encodes, a match that src would let run
// into a flat page, and nothing at all.
func TestSpliceRoundTrip(t *testing.T) {
	random := func(n int, seed int64) []byte { return incompressible(n, seed) }
	for _, tc := range []struct {
		name  string
		src   []byte
		codec ID
	}{
		{"flat-first", pages("RTTT", 1), DeflateID},
		{"flat-last", pages("TTTR", 2), DeflateID},
		{"every-page-flat", pages("RRRR", 3), RawID},
		{"every-full-page-flat", append(pages("RRRR", 3), random(1000, 3)...), RawID},
		{"partial-tail", append(pages("TRT", 4), random(1000, 4)...), DeflateID},
		{"partial-tail-after-flat", append(pages("TTR", 5), random(1000, 5)...), DeflateID},
		{"flat-run-over-64KiB", pages("T"+strings.Repeat("R", 20)+"T", 6), DeflateID},
		{"flat-run-over-64KiB-last", pages("T"+strings.Repeat("R", 20), 7), DeflateID},
		{"flat-first-over-64KiB", pages(strings.Repeat("R", 20)+"TTTTTTTT", 8), DeflateID},
		{"zero-and-text-runs", pages("ZZRTTRZRT", 9), DeflateID},
		{"bitmap-byte-part-used", append(pages("TRTRTRTRT", 10), "tail"...), DeflateID},
		{"chunk-4MiB", pages(strings.Repeat("RT", 512), 11), DeflateID},
		{"match-stops-at-its-run-end", matchPastRunEnd(), DeflateID},
		{"empty", nil, RawID},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if h := spliceRoundTrip(t, tc.src); h.Codec != tc.codec {
				t.Fatalf("frame stored under codec %d, want %d", h.Codec, tc.codec)
			}
		})
	}
}

// matchPastRunEnd is a text page, a flat page, and a page that opens with
// the text page's last 32 bytes and goes on with the flat page's first
// half. A match from the end of the text page must stop where its run
// does: in src the flat page follows it, but in the stream the third page
// does.
func matchPastRunEnd() []byte {
	src := pages("TRZ", 12)
	third := src[2*pageSize:]
	copy(third, src[pageSize-32:pageSize])
	copy(third[32:], src[pageSize:pageSize+pageSize/2])
	return src
}

// TestSpliceEveryRunBoundary puts a boundary between flat and deflated
// pages at every page index of a 16-page frame: all at once (alternating
// pages), and one at a time in both directions.
func TestSpliceEveryRunBoundary(t *testing.T) {
	const n = 16
	spliceRoundTrip(t, pages(strings.Repeat("TR", n/2), 1))
	spliceRoundTrip(t, pages(strings.Repeat("RT", n/2), 2))
	for b := 0; b <= n; b++ {
		spliceRoundTrip(t, pages(strings.Repeat("T", b)+strings.Repeat("R", n-b), int64(b)))
		spliceRoundTrip(t, pages(strings.Repeat("R", b)+strings.Repeat("T", n-b), int64(b)))
	}
}

// TestNoFlatPageEncodesAsPlainDeflate: a payload with no flat page is one
// plain stream, with no paged tag in front, that a bare flate reader
// inflates to src and then ends, every byte of it read. It is also at most
// 1 % + 16 bytes longer than level 6's stream of src: writing it with our
// own encoder instead of level 6 costs next to nothing in size.
func TestNoFlatPageEncodesAsPlainDeflate(t *testing.T) {
	for _, tc := range []struct {
		name string
		src  []byte
	}{
		{"text", pages("TTTTTTTT", 1)},
		{"zeros", pages("ZZZZ", 1)},
		{"compressible", compressible(1<<20, 9)},
		{"random-short-of-a-page", incompressible(pageSize-1, 3)},
		{"text-then-random-partial-page", append(pages("TT", 2), incompressible(3000, 2)...)},
		{"golden", goldenPayload(300, 1)},
		{"empty", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Deflate().Encode(nil, tc.src)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) > 0 && got[0] == pagedTag {
				t.Fatal("a payload with no flat page opens with the paged tag")
			}
			if back := inflate(t, got); !bytes.Equal(back, tc.src) {
				t.Fatalf("bare flate reader: %d bytes back, want %d", len(back), len(tc.src))
			}
			want := level6(t, tc.src)
			t.Logf("%d bytes, level 6 %d", len(got), len(want))
			if len(got) > len(want)+len(want)/100+16 {
				t.Fatalf("%d bytes, more than 1 %% + 16 over level 6's %d", len(got), len(want))
			}
		})
	}
}

// level6 returns the stdlib's level-6 stream of src.
func level6(t testing.TB, src []byte) []byte {
	t.Helper()
	var b bytes.Buffer
	fw, err := flate.NewWriter(&b, flate.DefaultCompression)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Write(src); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestEncodeRatioVsLevel6: on real data and on the benchmark's shapes, the
// stream is no more than 1 % longer than level 6's stream of the same
// bytes. For the page mix that is the stream of its non-flat pages, the
// only part of the payload the encoder writes.
func TestEncodeRatioVsLevel6(t *testing.T) {
	if raceEnabled() {
		t.Skip("one goroutine's arithmetic: the race detector only slows it")
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
	for _, tc := range []struct {
		name string
		src  []byte
	}{
		{"go-sources", gosrc},
		{"executable-4MiB", executable(t, 4<<20)},
		{"zeros-1MiB", make([]byte, 1<<20)},
		{"entropy-0.5-4MiB", pages(strings.Repeat("RT", 512), 1)},
		{"compressible-1MiB", compressible(1<<20, 9)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			payload, err := Deflate().Encode(nil, tc.src)
			if err != nil {
				t.Fatal(err)
			}
			stream, rest := payload, tc.src
			if len(payload) > 0 && payload[0] == pagedTag {
				var bitmap []byte
				if bitmap, _, stream, err = splitPaged(payload[1:], int64(len(tc.src))); err != nil {
					t.Fatal(err)
				}
				rest = nil
				for off := 0; off < len(tc.src); off += pageSize {
					end := nextFlat(bitmap, off, len(tc.src))
					rest = append(rest, tc.src[off:end]...)
					off = end
				}
			}
			want := level6(t, rest)
			t.Logf("%d bytes in: %d bytes, level 6 %d (%+.2f %%)", len(rest), len(stream), len(want),
				100*(float64(len(stream))/float64(len(want))-1))
			if len(stream)*100 > len(want)*101 {
				t.Fatalf("%d bytes, over 1.01 × level 6's %d", len(stream), len(want))
			}
		})
	}
}

// executable returns up to n bytes of the running test binary, a real
// machine-code image without long repeats.
func executable(t testing.TB, n int) []byte {
	t.Helper()
	path, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b, err := io.ReadAll(io.LimitReader(f, int64(n)))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestZeroChunkUnderMaxInflate: a 4 MiB chunk of zeros, the best case the
// encoder meets, encodes at ≈ 1028:1, just under maxInflate, so Decode's
// guard never refuses a frame the encoder wrote.
func TestZeroChunkUnderMaxInflate(t *testing.T) {
	src := make([]byte, 4<<20)
	frame, h, err := EncodeFrame(Deflate(), 0, 0, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d bytes in %d: %.1f:1, maxInflate %d:1", len(src), h.EncLen, float64(len(src))/float64(h.EncLen), maxInflate)
	if h.Codec != DeflateID {
		t.Fatalf("stored under codec %d", h.Codec)
	}
	got, err := DecodeFrame(h, frame[HeaderSize:], nil)
	if err != nil || !bytes.Equal(got, src) {
		t.Fatalf("DecodeFrame: %d bytes back, want %d: %v", len(got), len(src), err)
	}
}

// raceEnabled reports whether the test binary was built with -race, under
// which sync.Pool drops a quarter of what is put into it on purpose.
func raceEnabled() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestEncodeAllocsNothing: with a warm pool and a dst that already fits,
// an encode that writes a paged payload allocates nothing.
func TestEncodeAllocsNothing(t *testing.T) {
	if raceEnabled() {
		t.Skip("sync.Pool sheds pooled encoders under the race detector")
	}
	c := Deflate()
	src := append(pages("TRTTRRRT", 1), incompressible(1000, 1)...)
	dst := make([]byte, 0, 2*len(src))
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection empties the pool
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := c.Encode(dst, src); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Encode allocated %.1f times per call", allocs)
	}
}

// TestFlatPageRates pins what the classifier calls flat, over 20,000 pages
// of each random shape (fixed seeds, so the counts are exact):
//
//   - random pages: 20,000 of 20,000 flat;
//   - text, zero and pages of four copies of one random 1 KiB block: none;
//   - pages of two copies of one random 2 KiB block: 10,530, 53 %. Level
//     6 would find the second copy as one match; stored, it costs 2 KiB.
//     This is a known loss, left in: telling such a page from a random
//     one takes a match search, the very cost flat pages skip.
func TestFlatPageRates(t *testing.T) {
	if raceEnabled() {
		t.Skip("one goroutine's arithmetic: the race detector only slows it")
	}
	if flatLimit != pageSize*pageSize/256+2*pageSize {
		t.Fatalf("flatLimit %d is not n²/256 + 2n for n = %d", flatLimit, pageSize)
	}
	const trials = 20000
	rng := rand.New(rand.NewSource(1))
	page := make([]byte, pageSize)
	flat := func(trials int, fill func(i int, p []byte)) int {
		n := 0
		for i := 0; i < trials; i++ {
			fill(i, page)
			if flatPage(page) {
				n++
			}
		}
		return n
	}
	copies := func(block int) func(int, []byte) {
		return func(_ int, p []byte) {
			rng.Read(p[:block])
			for off := block; off < len(p); off += block {
				copy(p[off:], p[:block])
			}
		}
	}
	random := flat(trials, func(_ int, p []byte) { rng.Read(p) })
	halves := flat(trials, copies(2048))
	quarters := flat(trials, copies(1024))
	text := flat(trials, func(i int, p []byte) { textPage(p, i) })
	words := flat(trials/10, func(i int, p []byte) { copy(p, compressible(pageSize, int64(i))) })
	zero := flat(1, func(_ int, p []byte) { clear(p) })
	t.Logf("flat pages (limit %d): random %d/%d, 2×2 KiB %d/%d, 4×1 KiB %d/%d, text %d/%d, words %d/%d, zero %d/1",
		flatLimit, random, trials, halves, trials, quarters, trials, text, trials, words, trials/10, zero)
	if random != trials {
		t.Errorf("%d of %d random pages read flat, want all", random, trials)
	}
	if quarters+text+words+zero != 0 {
		t.Errorf("compressible pages read flat: 4×1 KiB %d, text %d, words %d, zero %d", quarters, text, words, zero)
	}
	if rate := float64(halves) / trials; rate < 0.50 || rate > 0.56 {
		t.Errorf("2×2 KiB pages read flat at %.3f, recorded as 0.527", rate)
	}
}
