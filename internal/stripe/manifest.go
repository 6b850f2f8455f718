package stripe

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"

	"crfs/internal/codec"
)

// A manifest records one striped checkpoint's layout: how the object
// was chunked, where every chunk's replicas live, and each chunk's
// CRC32-C fingerprint (the same Castagnoli polynomial format-v2 frames
// use, so a scrub can cross-check a chunk end to end). Manifests are
// small, so they are fully replicated: every node holds a copy under
// ManifestName(object), and any single surviving node can drive a full
// restore.
//
// The encoding is line-oriented text closed by a self-checksum line, so
// a torn or bit-rotten manifest copy is detected on decode and the
// reader falls through to the next node's copy:
//
//	CRFSM 1
//	object <name>
//	size <bytes>
//	chunksize <bytes>
//	replicas <k>
//	chunks <n>
//	chunk <idx> <offset> <length> <crc32c-hex> <node,node,...>
//	...
//	sum <crc32c-hex of every preceding byte>
type Manifest struct {
	Object    string
	Size      int64
	ChunkSize int64
	Replicas  int
	Chunks    []Chunk
}

// Chunk is one stripe unit of a checkpoint.
type Chunk struct {
	Offset int64
	Length int64
	CRC    uint32   // CRC32-C of the chunk payload
	Nodes  []string // replica holders, placement order (primary first)
}

// manifestSuffix tags manifest objects in a node's flat namespace.
const manifestSuffix = ".crfsm"

// chunkSep separates an object name from a chunk index in the
// per-chunk object names stored on nodes.
const chunkSep = ".s"

// ManifestName returns the node-local object name holding object's
// manifest copy.
func ManifestName(object string) string { return object + manifestSuffix }

// ChunkName returns the node-local object name holding chunk idx of
// object.
func ChunkName(object string, idx int) string {
	return fmt.Sprintf("%s%s%08d", object, chunkSep, idx)
}

// ParseObjectName classifies a node-local object name as a manifest
// copy, a chunk replica, or an unrelated object.
func ParseObjectName(name string) (object string, chunk int, kind Kind) {
	if o, ok := strings.CutSuffix(name, manifestSuffix); ok && o != "" {
		return o, 0, KindManifest
	}
	if i := strings.LastIndex(name, chunkSep); i > 0 {
		idx := name[i+len(chunkSep):]
		if len(idx) == 8 {
			if n, err := strconv.Atoi(idx); err == nil && n >= 0 {
				return name[:i], n, KindChunk
			}
		}
	}
	return "", 0, KindOther
}

// Kind classifies node-local object names.
type Kind int

const (
	KindOther Kind = iota
	KindManifest
	KindChunk
)

// Encode renders the manifest with its trailing self-checksum.
func (m *Manifest) Encode() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "CRFSM 1\n")
	fmt.Fprintf(&b, "object %s\n", m.Object)
	fmt.Fprintf(&b, "size %d\n", m.Size)
	fmt.Fprintf(&b, "chunksize %d\n", m.ChunkSize)
	fmt.Fprintf(&b, "replicas %d\n", m.Replicas)
	fmt.Fprintf(&b, "chunks %d\n", len(m.Chunks))
	for i, c := range m.Chunks {
		fmt.Fprintf(&b, "chunk %d %d %d %08x %s\n", i, c.Offset, c.Length, c.CRC, strings.Join(c.Nodes, ","))
	}
	fmt.Fprintf(&b, "sum %08x\n", codec.Checksum(b.Bytes()))
	return b.Bytes()
}

// DecodeManifest parses and verifies an encoded manifest. Any
// structural damage or checksum mismatch returns an error — the caller
// treats the copy as corrupt and reads another node's.
func DecodeManifest(data []byte) (*Manifest, error) {
	// The sum line is exactly "sum " + 8 lowercase hex digits + "\n" at
	// the very end; anything looser would let flips inside the line
	// itself (case changes, trailing damage) decode silently.
	const sumLen = len("sum xxxxxxxx\n")
	sumAt := len(data) - sumLen
	if sumAt < 0 || !bytes.HasPrefix(data[sumAt:], []byte("sum ")) || data[len(data)-1] != '\n' {
		return nil, fmt.Errorf("stripe: manifest: missing checksum line")
	}
	hex := data[sumAt+4 : len(data)-1]
	var want uint32
	for _, c := range hex {
		switch {
		case c >= '0' && c <= '9':
			want = want<<4 | uint32(c-'0')
		case c >= 'a' && c <= 'f':
			want = want<<4 | uint32(c-'a'+10)
		default:
			return nil, fmt.Errorf("stripe: manifest: bad checksum line %q", data[sumAt:])
		}
	}
	if got := codec.Checksum(data[:sumAt]); got != want {
		return nil, fmt.Errorf("stripe: manifest: checksum %08x, stored %08x: %w", got, want, codec.ErrChecksum)
	}

	m := &Manifest{}
	sc := bufio.NewScanner(bytes.NewReader(data[:sumAt]))
	sc.Buffer(nil, 1<<20) // a line may be this long; the buffer grows to what the lines need
	line := func() (string, error) {
		if !sc.Scan() {
			if err := sc.Err(); err != nil {
				return "", err
			}
			return "", io.ErrUnexpectedEOF
		}
		return sc.Text(), nil
	}
	hdr, err := line()
	if err != nil || hdr != "CRFSM 1" {
		return nil, fmt.Errorf("stripe: manifest: bad magic %q", hdr)
	}
	var nchunks int
	for _, f := range []struct {
		format string
		dst    any
	}{
		{"object %s", &m.Object},
		{"size %d", &m.Size},
		{"chunksize %d", &m.ChunkSize},
		{"replicas %d", &m.Replicas},
		{"chunks %d", &nchunks},
	} {
		l, err := line()
		if err != nil {
			return nil, fmt.Errorf("stripe: manifest: truncated header: %w", err)
		}
		if _, err := fmt.Sscanf(l, f.format, f.dst); err != nil {
			return nil, fmt.Errorf("stripe: manifest: bad header line %q: %w", l, err)
		}
	}
	m.Chunks = make([]Chunk, 0, nchunks)
	for i := 0; i < nchunks; i++ {
		l, err := line()
		if err != nil {
			return nil, fmt.Errorf("stripe: manifest: truncated chunk table: %w", err)
		}
		var idx int
		var c Chunk
		var nodes string
		if _, err := fmt.Sscanf(l, "chunk %d %d %d %x %s", &idx, &c.Offset, &c.Length, &c.CRC, &nodes); err != nil || idx != i {
			return nil, fmt.Errorf("stripe: manifest: bad chunk line %q: %w", l, err)
		}
		c.Nodes = strings.Split(nodes, ",")
		m.Chunks = append(m.Chunks, c)
	}
	return m, nil
}
