package stripe

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"crfs/internal/codec"
)

// A manifest records one striped checkpoint's layout: how the object
// was chunked, the name and replica holders of every chunk, and each
// chunk's CRC32-C fingerprint (the same Castagnoli polynomial format-v2
// frames use, so a restore checks a chunk as it lands). Manifests are
// small, so they are fully replicated: every node holds a copy under
// ManifestName(object), and any single surviving node can drive a full
// restore. A manifest is the only object the store ever overwrites.
//
// The encoding is line-oriented text closed by a self-checksum line, so
// a torn or bit-rotten manifest copy is detected on decode and the
// reader falls through to the next node's copy:
//
//	CRFSM 2
//	object <name>
//	size <bytes>
//	chunksize <bytes>
//	replicas <k>
//	chunks <n>
//	chunk <idx> <offset> <length> <crc32c-hex> <chunk name> <node,node,...>
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
	Name   string   // content name: the node-local object holding the payload
	Nodes  []string // replica holders, placement order (primary first)
}

// ErrManifestVersion reports a manifest copy in a format this store no
// longer reads: CRFSM 1 named chunks by object and index, so its chunks
// may have been overwritten since.
var ErrManifestVersion = errors.New("stripe: manifest format version not readable")

// manifestSuffix tags manifest objects in a node's flat namespace.
const manifestSuffix = ".crfsm"

// chunkSuffix ends a chunk's content name.
const chunkSuffix = ".c"

// ManifestName returns the node-local object name holding object's
// manifest copy.
func ManifestName(object string) string { return object + manifestSuffix }

// contentName names a chunk by its bytes: the lowercase hex SHA-256 of
// data, then ".c". Equal chunks get equal names, whatever object they
// belong to, and a name never holds other bytes.
func contentName(data []byte) string {
	sum := sha256.Sum256(data)
	var name [2*sha256.Size + len(chunkSuffix)]byte
	hex.Encode(name[:], sum[:])
	copy(name[2*sha256.Size:], chunkSuffix)
	return string(name[:])
}

// isContentName reports whether name has the form contentName makes.
func isContentName(name string) bool {
	hash, ok := strings.CutSuffix(name, chunkSuffix)
	return ok && len(hash) == 2*sha256.Size && strings.Trim(hash, hexDigits) == ""
}

const hexDigits = "0123456789abcdef"

// ParseObjectName classifies a node-local object name as a manifest
// copy, a chunk replica, or an unrelated object. object is set for a
// manifest only, and chunk is always 0: a chunk's content name belongs
// to no one object and carries no index.
func ParseObjectName(name string) (object string, chunk int, kind Kind) {
	if o, ok := strings.CutSuffix(name, manifestSuffix); ok && o != "" {
		return o, 0, KindManifest
	}
	if isContentName(name) {
		return "", 0, KindChunk
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

const manifestMagic = "CRFSM "

// Encode renders the manifest with its trailing self-checksum.
func (m *Manifest) Encode() []byte {
	b := make([]byte, 0, 128+len(m.Object)+len(m.Chunks)*(128+16*m.Replicas))
	b = append(append(append(b, manifestMagic+"2\nobject "...), m.Object...), '\n')
	for _, f := range [...]struct {
		key string
		v   int64
	}{{"size ", m.Size}, {"chunksize ", m.ChunkSize}, {"replicas ", int64(m.Replicas)}, {"chunks ", int64(len(m.Chunks))}} {
		b = append(strconv.AppendInt(append(b, f.key...), f.v, 10), '\n')
	}
	for i, c := range m.Chunks {
		b = strconv.AppendInt(append(b, "chunk "...), int64(i), 10)
		b = strconv.AppendInt(append(b, ' '), c.Offset, 10)
		b = strconv.AppendInt(append(b, ' '), c.Length, 10)
		b = appendHex32(append(b, ' '), c.CRC)
		b = append(append(append(b, ' '), c.Name...), ' ')
		for j, id := range c.Nodes {
			if j > 0 {
				b = append(b, ',')
			}
			b = append(b, id...)
		}
		b = append(b, '\n')
	}
	sum := codec.Checksum(b)
	b = append(b, "sum "...)
	b = appendHex32(b, sum)
	return append(b, '\n')
}

// appendHex32 appends v as eight lowercase hex digits.
func appendHex32(b []byte, v uint32) []byte {
	return hex.AppendEncode(b, binary.BigEndian.AppendUint32(make([]byte, 0, 4), v))
}

// parseHex32 parses exactly eight lowercase hex digits.
func parseHex32(s []byte) (uint32, bool) {
	v, err := strconv.ParseUint(string(s), 16, 32)
	return uint32(v), err == nil && len(s) == 8 && len(bytes.Trim(s, hexDigits)) == 0
}

// DecodeManifest parses and verifies an encoded manifest. Any
// structural damage or checksum mismatch returns an error — the caller
// treats the copy as corrupt and reads another node's — and a copy in
// an older format returns ErrManifestVersion. The manifest keeps no
// reference to data.
func DecodeManifest(data []byte) (*Manifest, error) {
	// The sum line is exactly "sum " + 8 lowercase hex digits + "\n" at
	// the very end; anything looser would let flips inside the line
	// itself (case changes, trailing damage) decode silently.
	const sumLen = len("sum xxxxxxxx\n")
	sumAt := len(data) - sumLen
	if sumAt < 0 || !bytes.HasPrefix(data[sumAt:], []byte("sum ")) || data[len(data)-1] != '\n' {
		return nil, fmt.Errorf("stripe: manifest: missing checksum line")
	}
	want, ok := parseHex32(data[sumAt+4 : len(data)-1])
	if !ok {
		return nil, fmt.Errorf("stripe: manifest: bad checksum line %q", data[sumAt:])
	}
	if got := codec.Checksum(data[:sumAt]); got != want {
		return nil, fmt.Errorf("stripe: manifest: checksum %08x, stored %08x: %w", got, want, codec.ErrChecksum)
	}

	d := lines{rest: data[:sumAt]}
	if hdr := d.line(""); string(hdr) != manifestMagic+"2" {
		if bytes.HasPrefix(hdr, []byte(manifestMagic)) {
			return nil, fmt.Errorf("%w: %q", ErrManifestVersion, hdr)
		}
		return nil, fmt.Errorf("stripe: manifest: bad magic %q", hdr)
	}
	m := &Manifest{Object: string(d.line("object "))}
	m.Size = d.num(d.line("size "))
	m.ChunkSize = d.num(d.line("chunksize "))
	m.Replicas = int(d.num(d.line("replicas ")))
	// Every chunk line is longer than 8 bytes, and it lists its node IDs
	// separated by commas, which appear nowhere else in the table.
	n := d.num(d.line("chunks "))
	if d.bad || n > int64(len(d.rest)/8) {
		return nil, fmt.Errorf("stripe: manifest: bad header")
	}
	m.Chunks = make([]Chunk, n)
	nodes := make([]string, 0, int(n)+bytes.Count(d.rest, []byte(",")))
	for i := range m.Chunks {
		c, f := &m.Chunks[i], d.line("chunk ")
		d.bad = d.bad || d.num(word(&f)) != int64(i)
		c.Offset, c.Length = d.num(word(&f)), d.num(word(&f))
		c.CRC, ok = parseHex32(word(&f))
		c.Name = string(word(&f))
		if d.bad || !ok || !isContentName(c.Name) {
			return nil, fmt.Errorf("stripe: manifest: bad chunk line %d", i)
		}
		first := len(nodes)
		for more := true; more; {
			var id []byte
			id, f, more = bytes.Cut(f, []byte(","))
			nodes = append(nodes, d.nodeID(id, nodes))
		}
		c.Nodes = nodes[first:len(nodes):len(nodes)]
	}
	if d.bad || len(d.rest) != 0 {
		return nil, fmt.Errorf("stripe: manifest: bad node list or trailing bytes")
	}
	return m, nil
}

// lines cuts a manifest's text into lines and fields; bad records that
// one was not what it should be.
type lines struct {
	rest []byte
	bad  bool
}

// line returns the rest of the next line after prefix, which it must
// start with.
func (d *lines) line(prefix string) []byte {
	l, rest, ok := bytes.Cut(d.rest, []byte("\n"))
	v, has := bytes.CutPrefix(l, []byte(prefix))
	d.rest, d.bad = rest, d.bad || !ok || !has
	return v
}

// word cuts the next space-separated field off f.
func word(f *[]byte) []byte {
	w, rest, _ := bytes.Cut(*f, []byte(" "))
	*f = rest
	return w
}

// num parses a non-negative decimal.
func (d *lines) num(b []byte) int64 {
	n, err := strconv.ParseInt(string(b), 10, 64)
	d.bad = d.bad || err != nil || n < 0
	return n
}

// nodeID returns id as a string: one among the first few of nodes when
// equal, since a store has few nodes and a table then allocates each ID
// once.
func (d *lines) nodeID(id []byte, nodes []string) string {
	d.bad = d.bad || len(id) == 0
	for _, seen := range nodes[:min(len(nodes), 16)] {
		if seen == string(id) {
			return seen
		}
	}
	return string(id)
}
