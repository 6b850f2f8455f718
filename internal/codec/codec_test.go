package codec

import (
	"bytes"
	"math/rand"
	"testing"
)

// compressible returns n bytes of low-entropy checkpoint-like data.
func compressible(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, n)
	words := []string{"checkpoint", "rank", "page", "\x00\x00\x00\x00\x00\x00", "stack"}
	for i := 0; i < n; {
		w := words[rng.Intn(len(words))]
		i += copy(out[i:], w)
	}
	return out
}

// incompressible returns n bytes of uniform random data.
func incompressible(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, n)
	rng.Read(out)
	return out
}

// decode runs c's decoder with the checksum it takes left unchecked.
func decode(c Codec, dst, src []byte, rawLen int64) ([]byte, error) {
	out, _, err := c.decodeSum(dst, src, rawLen)
	return out, err
}

func TestRegistry(t *testing.T) {
	for _, name := range []string{"raw", "deflate"} {
		c, err := Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		if c.Name() != name {
			t.Errorf("Lookup(%q).Name() = %q", name, c.Name())
		}
		byID, err := ByID(c.ID())
		if err != nil || byID.Name() != name {
			t.Errorf("ByID(%d) = %v, %v; want %q", c.ID(), byID, err, name)
		}
	}
	if _, err := Lookup("zstd"); err == nil {
		t.Error("Lookup of unregistered codec succeeded")
	}
	if _, err := ByID(200); err == nil {
		t.Error("ByID of unregistered id succeeded")
	}
	names := Names()
	if len(names) < 2 {
		t.Errorf("Names() = %v, want at least raw and deflate", names)
	}
}

// TestRoundTrip is the property test: encode→decode is bit-identical for
// every codec across payload sizes and data shapes, including reuse of a
// non-empty destination buffer.
func TestRoundTrip(t *testing.T) {
	sizes := []int{0, 1, 7, 512, 4096, 65537, 1 << 20}
	for _, name := range Names() {
		c, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range sizes {
			for shape, gen := range map[string]func(int, int64) []byte{
				"compressible":   compressible,
				"incompressible": incompressible,
			} {
				src := gen(n, int64(n)+1)
				enc, err := c.Encode(nil, src)
				if err != nil {
					t.Fatalf("%s/%s/%d: encode: %v", name, shape, n, err)
				}
				dec, err := decode(c, nil, enc, int64(len(src)))
				if err != nil {
					t.Fatalf("%s/%s/%d: decode: %v", name, shape, n, err)
				}
				if !bytes.Equal(dec, src) {
					t.Fatalf("%s/%s/%d: round trip differs", name, shape, n)
				}
				// Appending to a prefixed destination must preserve it.
				pre := []byte("prefix")
				dec2, err := decode(c, pre, enc, int64(len(src)))
				if err != nil {
					t.Fatalf("%s/%s/%d: decode with prefix: %v", name, shape, n, err)
				}
				if !bytes.HasPrefix(dec2, pre) || !bytes.Equal(dec2[len(pre):], src) {
					t.Fatalf("%s/%s/%d: prefixed decode corrupted", name, shape, n)
				}
			}
		}
	}
}

func TestDeflateShrinksCompressible(t *testing.T) {
	c := Deflate()
	src := compressible(1<<20, 42)
	enc, err := c.Encode(nil, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) >= len(src)/2 {
		t.Errorf("deflate: %d -> %d bytes, expected at least 2x shrink", len(src), len(enc))
	}
}

func TestConcurrentCodecUse(t *testing.T) {
	// One codec instance serves every IO worker of a mount; hammer it.
	c := Deflate()
	src := compressible(1<<18, 7)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 20; i++ {
				enc, err := c.Encode(nil, src)
				if err != nil {
					done <- err
					return
				}
				dec, err := decode(c, nil, enc, int64(len(src)))
				if err != nil {
					done <- err
					return
				}
				if !bytes.Equal(dec, src) {
					done <- bytes.ErrTooLarge // any sentinel
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
