// Package codec provides the pluggable chunk codecs of CRFS's async write
// path. An IO worker hands each aggregation chunk to a Codec before the
// backend write; with a non-raw codec the file becomes a sequence of
// self-describing frames (see frame.go), each encoded independently so
// that the worker pool compresses and decompresses chunks in parallel —
// the frame design of fast parallel checkpoint formats, and the
// compressed-checkpoint storage direction of stdchk.
//
// Codecs are identified two ways: a human-facing Name used by flags and
// options ("raw", "deflate"), and a stable one-byte ID stored in every
// frame header so that files remain readable regardless of the mount's
// configured codec.
package codec

import (
	"fmt"
	"slices"
	"sort"
)

// ID is the stable on-disk identifier of a codec, stored in each frame
// header. IDs are append-only: never renumber a released codec.
type ID uint8

// Registered codec IDs.
const (
	// RawID stores payloads verbatim. Raw frames are also the
	// incompressible-data bailout target of every other codec.
	RawID ID = 0
	// DeflateID compresses payloads with DEFLATE (RFC 1951).
	DeflateID ID = 1
)

// Codec encodes and decodes chunk-sized payloads. Implementations must be
// safe for concurrent use: one Codec instance serves every IO worker of a
// mount simultaneously.
type Codec interface {
	// ID returns the codec's on-disk identifier.
	ID() ID
	// Name returns the codec's flag/option name.
	Name() string
	// Encode appends the encoded form of src to dst and returns the
	// extended slice. Encode must not retain src.
	Encode(dst, src []byte) ([]byte, error)
	// decodeSum appends the decoded form of src to dst and returns the
	// extended slice with the CRC32-C of the bytes it appended, taken as
	// it writes them. rawLen is the expected decoded size (from the
	// frame header): implementations must fail rather than produce more
	// than rawLen bytes, so a corrupt or adversarial payload cannot
	// balloon memory, and may use it to size buffers. decodeSum must not
	// retain src. It is unexported, so every Codec is one of this
	// package's; frames are decoded through DecodeFrame.
	decodeSum(dst, src []byte, rawLen int64) ([]byte, uint32, error)
}

// registry holds the built-in and registered codecs.
var (
	byName = make(map[string]Codec)
	byID   = make(map[ID]Codec)
)

// Register adds a codec to the registry, making it resolvable by Lookup
// and ByID (and therefore decodable when its ID appears in a frame
// header). Register panics on a duplicate name or ID: codec identity is a
// program-wiring concern, not a runtime condition.
func Register(c Codec) {
	if _, ok := byName[c.Name()]; ok {
		panic(fmt.Sprintf("codec: duplicate name %q", c.Name()))
	}
	if _, ok := byID[c.ID()]; ok {
		panic(fmt.Sprintf("codec: duplicate id %d", c.ID()))
	}
	byName[c.Name()] = c
	byID[c.ID()] = c
}

// Lookup resolves a codec by flag/option name.
func Lookup(name string) (Codec, error) {
	c, ok := byName[name]
	if !ok {
		return nil, fmt.Errorf("codec: unknown codec %q (have %v)", name, Names())
	}
	return c, nil
}

// ByID resolves a codec by its on-disk identifier, as found in a frame
// header.
func ByID(id ID) (Codec, error) {
	c, ok := byID[id]
	if !ok {
		return nil, fmt.Errorf("codec: unknown codec id %d", id)
	}
	return c, nil
}

// Names returns the registered codec names, sorted.
func Names() []string {
	out := make([]string, 0, len(byName))
	for n := range byName {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// rawCodec is the passthrough codec: payloads are stored verbatim.
type rawCodec struct{}

func (rawCodec) ID() ID       { return RawID }
func (rawCodec) Name() string { return "raw" }

func (rawCodec) Encode(dst, src []byte) ([]byte, error) { return append(dst, src...), nil }

func (rawCodec) decodeSum(dst, src []byte, rawLen int64) ([]byte, uint32, error) {
	if int64(len(src)) > rawLen {
		return dst, 0, fmt.Errorf("%w: raw payload %d exceeds declared size %d", ErrCorrupt, len(src), rawLen)
	}
	base := len(dst)
	out := slices.Grow(dst, len(src))[:base+len(src)]
	return out, copySum(out[base:], src, 0), nil
}

// Raw returns the passthrough codec.
func Raw() Codec { return rawCodec{} }

func init() {
	Register(rawCodec{})
	Register(newDeflate())
}
