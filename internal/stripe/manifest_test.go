package stripe

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"crfs/internal/codec"
)

func sampleManifest() *Manifest {
	return &Manifest{
		Object:    "app/rank3.ckpt",
		Size:      10 << 20,
		ChunkSize: 4 << 20,
		Replicas:  2,
		Chunks: []Chunk{
			{Offset: 0, Length: 4 << 20, CRC: 0xdeadbeef, Name: contentName([]byte("0")), Nodes: []string{"n1", "n2"}},
			{Offset: 4 << 20, Length: 4 << 20, CRC: 0x01020304, Name: contentName([]byte("1")), Nodes: []string{"n3", "n1"}},
			{Offset: 8 << 20, Length: 2 << 20, CRC: 0, Name: contentName([]byte("2")), Nodes: []string{"n2", "n3"}},
		},
	}
}

func TestManifestRoundtrip(t *testing.T) {
	m := sampleManifest()
	got, err := DecodeManifest(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("roundtrip mismatch:\n%+v\n%+v", m, got)
	}
	// Empty object: zero chunks.
	empty := &Manifest{Object: "empty", ChunkSize: 4 << 20, Replicas: 2, Chunks: []Chunk{}}
	got, err = DecodeManifest(empty.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Size != 0 || len(got.Chunks) != 0 {
		t.Fatalf("empty roundtrip = %+v", got)
	}
}

// TestManifestDetectsCorruption: every single-byte flip must fail the
// self-checksum (or structural parse), never decode silently wrong.
func TestManifestDetectsCorruption(t *testing.T) {
	enc := sampleManifest().Encode()
	for i := range enc {
		bad := append([]byte(nil), enc...)
		bad[i] ^= 0x20
		if m, err := DecodeManifest(bad); err == nil {
			// A flip inside the name of a node could in principle collide,
			// but CRC32-C over the whole body catches single-byte flips.
			t.Fatalf("flip at byte %d decoded silently: %+v", i, m)
		}
	}
	// Truncation too.
	for _, cut := range []int{1, len(enc) / 2, len(enc) - 2} {
		if _, err := DecodeManifest(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded silently", cut)
		}
	}
	if _, err := DecodeManifest(nil); err == nil {
		t.Fatal("empty manifest decoded")
	}
	// The checksum failure is typed: a scrubber distinguishes bit rot
	// from structural damage.
	bad := append([]byte(nil), enc...)
	bad[20] ^= 0xFF
	if _, err := DecodeManifest(bad); !errors.Is(err, codec.ErrChecksum) && !errors.Is(err, codec.ErrCorrupt) {
		if err == nil {
			t.Fatal("corrupt manifest decoded")
		}
	}
}

func TestObjectNames(t *testing.T) {
	const abc = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad" // SHA-256 of "abc"
	if got := contentName([]byte("abc")); got != abc+".c" {
		t.Fatalf("contentName = %q", got)
	}
	if got := ManifestName("a/b.ckpt"); got != "a/b.ckpt.crfsm" {
		t.Fatalf("ManifestName = %q", got)
	}
	cases := []struct {
		in   string
		obj  string
		kind Kind
	}{
		{"a/b.ckpt.crfsm", "a/b.ckpt", KindManifest},
		{abc + ".c", "", KindChunk},
		{abc + ".crfsm", abc, KindManifest},
		{"plain-object", "", KindOther},
		{"a/b.ckpt.s00000007", "", KindOther}, // the index names CRFSM 1 used
		{abc[1:] + ".c", "", KindOther},       // one digit short
		{abc + "0.c", "", KindOther},          // one digit long
		{strings.ToUpper(abc) + ".c", "", KindOther},
		{"dir/" + abc[4:] + ".c", "", KindOther},
		{abc + ".d", "", KindOther},
		{".crfsm", "", KindOther}, // no object part
	}
	for _, tc := range cases {
		obj, idx, kind := ParseObjectName(tc.in)
		if obj != tc.obj || idx != 0 || kind != tc.kind {
			t.Errorf("ParseObjectName(%q) = (%q, %d, %v), want (%q, 0, %v)",
				tc.in, obj, idx, kind, tc.obj, tc.kind)
		}
	}
}

// TestManifestVersionRefused: a CRFSM 1 copy, intact and self-checked,
// is refused with ErrManifestVersion rather than read: its chunks were
// named by object and index, and an overwrite may have replaced them.
func TestManifestVersionRefused(t *testing.T) {
	v1 := []byte("CRFSM 1\nobject a\nsize 10\nchunksize 4194304\nreplicas 2\nchunks 1\n" +
		"chunk 0 0 10 deadbeef n1,n2\n")
	v1 = append(v1, fmt.Sprintf("sum %08x\n", codec.Checksum(v1))...)
	if m, err := DecodeManifest(v1); !errors.Is(err, ErrManifestVersion) {
		t.Fatalf("CRFSM 1 copy: %+v, %v; want ErrManifestVersion", m, err)
	}
}

// TestDecodeManifestAllocs pins the decode of a 16-chunk manifest at
// one allocation for each chunk's name and each distinct node ID, plus
// four: the manifest, its object name, its chunk table and one array of
// node IDs.
func TestDecodeManifestAllocs(t *testing.T) {
	m := &Manifest{Object: "app/rank3.ckpt", Size: 64 << 20, ChunkSize: 4 << 20, Replicas: 2}
	ids := []string{"n1", "n2", "n3"}
	for i := range 16 {
		m.Chunks = append(m.Chunks, Chunk{
			Offset: int64(i) << 22, Length: 4 << 20, CRC: uint32(i) * 0x9E3779B9,
			Name: contentName([]byte{byte(i)}), Nodes: []string{ids[i%3], ids[(i+1)%3]},
		})
	}
	enc := m.Encode()
	if got, err := DecodeManifest(enc); err != nil || !reflect.DeepEqual(got, m) {
		t.Fatalf("roundtrip: %v\n%+v\n%+v", err, got, m)
	}
	if n, want := testing.AllocsPerRun(100, func() { DecodeManifest(enc) }), float64(4+16+len(ids)); n != want {
		t.Errorf("decoding a 16-chunk manifest over %d nodes: %v allocations, want %v", len(ids), n, want)
	}
}
