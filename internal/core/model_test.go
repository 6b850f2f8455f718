package core

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"crfs/internal/codec"
	"crfs/internal/memfs"
	"crfs/internal/vfs"
)

// The model-based differential test drives a CRFS mount and a trivial
// in-memory model through the same random operation sequence, asserting
// byte-identical visible state after every single operation. The model
// is deliberately dumb — a map of byte slices with POSIX extend/truncate
// semantics — so any divergence indicts the mount's aggregation,
// framing, overlay, prefetch, or table-lifecycle machinery.

// modelFS is the reference model: name -> contents.
type modelFS struct {
	files map[string][]byte
}

func newModelFS() *modelFS { return &modelFS{files: make(map[string][]byte)} }

func (m *modelFS) writeAt(name string, p []byte, off int64) {
	data := m.files[name]
	if end := off + int64(len(p)); len(p) > 0 && end > int64(len(data)) {
		grown := make([]byte, end)
		copy(grown, data)
		data = grown
	}
	copy(data[off:], p)
	m.files[name] = data
}

func (m *modelFS) truncate(name string, size int64) {
	data := m.files[name]
	if size <= int64(len(data)) {
		m.files[name] = data[:size]
		return
	}
	grown := make([]byte, size)
	copy(grown, data)
	m.files[name] = grown
}

// modelHarness pairs the mount with the model and the open-handle state.
type modelHarness struct {
	t       *testing.T
	fs      *FS
	model   *modelFS
	handles map[string]vfs.File // nil entry = closed
	framed  bool                // mount writes frame containers
	rng     *rand.Rand

	// pending tracks extents written since the file's last drain. Raw
	// mounts only guarantee last-writer-wins for writes that are not
	// simultaneously in flight (overlapping chunks land in worker order —
	// a documented non-goal, since checkpoint streams never overwrite);
	// the harness drains before overwriting a pending extent so the test
	// exercises exactly the contract the mount makes. Framed mounts
	// restore write order via frame sequence numbers and skip this.
	pending map[string][][2]int64
}

var modelNames = []string{"alpha", "beta", "gamma"}

// verify checks that every model file's visible state — size and every
// byte — matches what the mount serves, through existing handles when
// open and fresh read-only handles when not.
func (h *modelHarness) verify(opDesc string) {
	h.t.Helper()
	for name, want := range h.model.files {
		info, err := h.fs.Stat(name)
		if err != nil {
			h.t.Fatalf("after %s: Stat(%s): %v", opDesc, name, err)
		}
		if info.Size != int64(len(want)) {
			h.t.Fatalf("after %s: Stat(%s).Size = %d, model %d", opDesc, name, info.Size, len(want))
		}
		f := h.handles[name]
		transient := f == nil
		if transient {
			var err error
			f, err = h.fs.Open(name, vfs.ReadOnly)
			if err != nil {
				h.t.Fatalf("after %s: open %s for verify: %v", opDesc, name, err)
			}
		}
		got := make([]byte, len(want))
		if len(got) > 0 {
			n, err := f.ReadAt(got, 0)
			if err != nil && err != io.EOF {
				h.t.Fatalf("after %s: read %s: %v", opDesc, name, err)
			}
			if n != len(want) {
				h.t.Fatalf("after %s: read %s: %d of %d bytes", opDesc, name, n, len(want))
			}
		}
		// Reading exactly at EOF must say EOF.
		if n, err := f.ReadAt(make([]byte, 1), int64(len(want))); err != io.EOF || n != 0 {
			h.t.Fatalf("after %s: read %s at EOF: n=%d err=%v", opDesc, name, n, err)
		}
		if transient {
			if err := f.Close(); err != nil {
				h.t.Fatalf("after %s: close verify handle of %s: %v", opDesc, name, err)
			}
		}
		if !bytes.Equal(got, want) {
			for i := range got {
				if got[i] != want[i] {
					h.t.Fatalf("after %s: %s diverges at byte %d: got %d, model %d",
						opDesc, name, i, got[i], want[i])
				}
			}
		}
	}
}

// step performs one random operation on both systems and returns its
// description.
func (h *modelHarness) step() string {
	h.t.Helper()
	name := modelNames[h.rng.Intn(len(modelNames))]
	_, exists := h.model.files[name]
	open := h.handles[name] != nil
	switch op := h.rng.Intn(112); {
	case op >= 106: // Hand the file over: open a second handle, then close the first
		if !open {
			return h.step()
		}
		old := h.handles[name]
		h.open(name) // shares the entry; the model keeps using the new handle
		if err := old.Close(); err != nil {
			h.t.Fatalf("Close(%s) of the older of two handles: %v", name, err)
		}
		h.pending[name] = nil // Close drains
		return fmt.Sprintf("Handoff(%s)", name)
	case op >= 100: // A run of small sequential reads: the stream read-ahead recognises
		if !exists || len(h.model.files[name]) == 0 {
			return h.step()
		}
		if !open {
			h.open(name)
		}
		want := h.model.files[name]
		n := h.rng.Intn(48) + 8
		off := h.rng.Int63n(int64(len(want)))
		calls := h.rng.Intn(40) + 4
		got := make([]byte, n)
		for i := 0; i < calls && off < int64(len(want)); i++ {
			if h.framed && i == calls/2 {
				// Mid-stream close and reopen: the last close drops the decode
				// cache's pin with the entry, and the stream takes it up again.
				if err := h.handles[name].Close(); err != nil {
					h.t.Fatalf("mid-stream Close(%s): %v", name, err)
				}
				h.pending[name] = nil
				h.open(name)
			}
			gotN, err := h.handles[name].ReadAt(got, off)
			if err != nil && err != io.EOF {
				h.t.Fatalf("stream ReadAt(%s, %d): %v", name, off, err)
			}
			if wantN := copy(make([]byte, n), want[off:]); gotN != wantN || !bytes.Equal(got[:gotN], want[off:off+int64(gotN)]) {
				h.t.Fatalf("stream ReadAt(%s, off=%d, n=%d): %d bytes, model %d, or content mismatch", name, off, n, gotN, wantN)
			}
			off += int64(gotN)
		}
		return fmt.Sprintf("StreamRead(%s, n=%d, calls=%d)", name, n, calls)
	case op < 40: // WriteAt
		if !open {
			h.open(name)
		}
		n := h.rng.Intn(700) + 1
		off := h.rng.Int63n(20000)
		if !h.framed {
			for _, ext := range h.pending[name] {
				if off < ext[1] && off+int64(n) > ext[0] {
					// Raw contract: drain before overwriting in-flight data.
					if err := h.handles[name].Sync(); err != nil {
						h.t.Fatalf("pre-overwrite Sync(%s): %v", name, err)
					}
					h.pending[name] = nil
					break
				}
			}
			h.pending[name] = append(h.pending[name], [2]int64{off, off + int64(n)})
		}
		p := make([]byte, n)
		for i := range p {
			p[i] = byte(h.rng.Intn(256))
		}
		if _, err := h.handles[name].WriteAt(p, off); err != nil {
			h.t.Fatalf("WriteAt(%s, %d, %d): %v", name, off, n, err)
		}
		h.model.writeAt(name, p, off)
		return fmt.Sprintf("WriteAt(%s, off=%d, n=%d)", name, off, n)
	case op < 55: // ReadAt, compared directly
		if !exists {
			return h.step()
		}
		if !open {
			h.open(name)
		}
		want := h.model.files[name]
		n := h.rng.Intn(900) + 1
		off := h.rng.Int63n(int64(len(want)) + 100)
		got := make([]byte, n)
		gotN, err := h.handles[name].ReadAt(got, off)
		wantN := 0
		if off < int64(len(want)) {
			wantN = copy(make([]byte, n), want[off:])
		}
		if err != nil && err != io.EOF {
			h.t.Fatalf("ReadAt(%s, %d): %v", name, off, err)
		}
		if gotN != wantN {
			h.t.Fatalf("ReadAt(%s, %d): n=%d, model %d", name, off, gotN, wantN)
		}
		if wantEOF := off+int64(n) > int64(len(want)); wantEOF != (err == io.EOF) {
			h.t.Fatalf("ReadAt(%s, %d, n=%d): err=%v, model EOF=%v (len %d)", name, off, n, err, wantEOF, len(want))
		}
		if gotN > 0 && !bytes.Equal(got[:gotN], want[off:off+int64(gotN)]) {
			h.t.Fatalf("ReadAt(%s, %d): content mismatch", name, off)
		}
		return fmt.Sprintf("ReadAt(%s, off=%d, n=%d)", name, off, n)
	case op < 65: // Truncate
		if !exists {
			return h.step()
		}
		cur := int64(len(h.model.files[name]))
		var size int64
		if h.framed {
			// Containers only support reset, no-op, and extension.
			switch h.rng.Intn(3) {
			case 0:
				size = 0
			case 1:
				size = cur
			default:
				size = cur + h.rng.Int63n(4000)
			}
		} else {
			size = h.rng.Int63n(cur + 4000)
		}
		if err := h.fs.Truncate(name, size); err != nil {
			h.t.Fatalf("Truncate(%s, %d) [cur %d]: %v", name, size, cur, err)
		}
		h.pending[name] = nil // Truncate drains first
		h.model.truncate(name, size)
		return fmt.Sprintf("Truncate(%s, %d)", name, size)
	case op < 72: // Sync
		if !open {
			return h.step()
		}
		if err := h.handles[name].Sync(); err != nil {
			h.t.Fatalf("Sync(%s): %v", name, err)
		}
		h.pending[name] = nil
		return fmt.Sprintf("Sync(%s)", name)
	case op < 88: // Close / reopen
		if open {
			if err := h.handles[name].Close(); err != nil {
				h.t.Fatalf("Close(%s): %v", name, err)
			}
			h.handles[name] = nil
			h.pending[name] = nil
			return fmt.Sprintf("Close(%s)", name)
		}
		h.open(name)
		return fmt.Sprintf("Open(%s)", name)
	case op < 94: // Rename onto a closed destination
		if !exists {
			return h.step()
		}
		dst := modelNames[h.rng.Intn(len(modelNames))]
		if dst == name || h.handles[dst] != nil {
			return h.step()
		}
		if err := h.fs.Rename(name, dst); err != nil {
			h.t.Fatalf("Rename(%s, %s): %v", name, dst, err)
		}
		h.model.files[dst] = h.model.files[name]
		delete(h.model.files, name)
		h.handles[dst] = h.handles[name] // handle follows the rename
		h.handles[name] = nil
		h.pending[dst] = nil // Rename drains the source
		h.pending[name] = nil
		return fmt.Sprintf("Rename(%s, %s)", name, dst)
	default: // Remove a closed file
		if !exists || open {
			return h.step()
		}
		if err := h.fs.Remove(name); err != nil {
			h.t.Fatalf("Remove(%s): %v", name, err)
		}
		delete(h.model.files, name)
		return fmt.Sprintf("Remove(%s)", name)
	}
}

func (h *modelHarness) open(name string) {
	h.t.Helper()
	f, err := h.fs.Open(name, vfs.ReadWrite|vfs.Create)
	if err != nil {
		h.t.Fatalf("Open(%s): %v", name, err)
	}
	h.handles[name] = f
	if _, ok := h.model.files[name]; !ok {
		h.model.files[name] = []byte{}
	}
}

// scrubAfterCorruption plants a corrupted sacrificial v2 container on the
// backend (a name outside the model's), scrubs the mount, and asserts the
// rot surfaces as a counted checksum failure — without disturbing the
// read semantics of any model file, which verify() proves right after.
func (h *modelHarness) scrubAfterCorruption(back vfs.FS) {
	h.t.Helper()
	box, _ := rawFrameContainer(h.t, codec.Version2, 3, 1024)
	frames, _, _ := codec.ScanPrefix(bytes.NewReader(box), int64(len(box)))
	box[frames[1].Pos+codec.HeaderSize+13] ^= 0x01
	if err := vfs.WriteFile(back, "victim.crfc", box); err != nil {
		h.t.Fatal(err)
	}
	rep, err := h.fs.Scrub()
	if err != nil {
		h.t.Fatalf("scrub after corruption: %v", err)
	}
	if rep.ChecksumFailures < 1 {
		h.t.Fatalf("planted rot not counted as a checksum failure: %+v", rep)
	}
	st := h.fs.Stats()
	if st.ChecksumFailed < 1 {
		h.t.Fatalf("scrub checksum failure missing from Stats: %+v", st)
	}
	if err := back.Remove("victim.crfc"); err != nil {
		h.t.Fatal(err)
	}
	h.verify("scrub-after-corruption")
}

// TestModelMixedVersion pre-seeds the backend with legacy v1 containers,
// then drives the standard op sequence over them through a v2-writing
// mount: every overwrite and append mixes v2 frames into a v1 chain, and
// the differential contract must hold at every step, across a planted
// mid-sequence corruption scrub, and across a remount that reindexes the
// mixed containers from scratch.
func TestModelMixedVersion(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		back := memfs.New()
		model := newModelFS()
		for i, name := range modelNames {
			var box, content []byte
			for j := 0; j < 3+i; j++ {
				part := compressiblePayload(1200, seed*100+int64(i*8+j))
				var err error
				box, _, err = codec.EncodeFrameVersion(codec.Raw(), codec.Version1,
					uint64(j), int64(j)*1200, part, box)
				if err != nil {
					t.Fatal(err)
				}
				content = append(content, part...)
			}
			if err := vfs.WriteFile(back, name, box); err != nil {
				t.Fatal(err)
			}
			model.files[name] = content
		}
		fs := mount(t, back, Options{
			ChunkSize: 512, BufferPoolSize: 16 << 10, IOThreads: 3,
			Codec: codec.Deflate(), ReadAhead: 4,
		})
		h := &modelHarness{
			t: t, fs: fs, model: model,
			handles: make(map[string]vfs.File),
			pending: make(map[string][][2]int64),
			framed:  true,
			rng:     rand.New(rand.NewSource(seed)),
		}
		h.verify(fmt.Sprintf("seed %d pre-seeded v1 state", seed))
		for i := 0; i < 250; i++ {
			desc := h.step()
			h.verify(fmt.Sprintf("mixed seed %d op %d %s", seed, i, desc))
			if i == 120 {
				h.scrubAfterCorruption(back)
			}
		}
		for name, f := range h.handles {
			if f != nil {
				if err := f.Close(); err != nil {
					t.Fatalf("final close %s: %v", name, err)
				}
			}
		}
		fs2 := mount(t, back, Options{
			ChunkSize: 512, BufferPoolSize: 16 << 10, IOThreads: 3,
			Codec: codec.Deflate(), ReadAhead: 4,
		})
		h2 := &modelHarness{
			t: t, fs: fs2, model: h.model,
			handles: make(map[string]vfs.File),
			pending: make(map[string][][2]int64), framed: true,
		}
		h2.verify(fmt.Sprintf("mixed seed %d remount", seed))
	}
}

// TestModelDifferential runs the random op sequences over every mount
// flavour the read and write pipelines distinguish: raw and deflate, with
// and without read-ahead. Run under -race in CI.
func TestModelDifferential(t *testing.T) {
	for _, tc := range []struct {
		name      string
		cdc       codec.Codec
		readAhead int
	}{
		{"raw", nil, 0},
		{"raw/readahead", nil, 4},
		{"deflate", codec.Deflate(), 0},
		{"deflate/readahead", codec.Deflate(), 4},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= 3; seed++ {
				back := memfs.New()
				fs := mount(t, back, Options{
					ChunkSize: 512, BufferPoolSize: 16 << 10, IOThreads: 3,
					Codec: tc.cdc, ReadAhead: tc.readAhead,
				})
				h := &modelHarness{
					t: t, fs: fs, model: newModelFS(),
					handles: make(map[string]vfs.File),
					pending: make(map[string][][2]int64),
					framed:  tc.cdc != nil && tc.cdc.ID() != codec.RawID,
					rng:     rand.New(rand.NewSource(seed)),
				}
				for i := 0; i < 250; i++ {
					desc := h.step()
					h.verify(fmt.Sprintf("seed %d op %d %s", seed, i, desc))
				}
				for name, f := range h.handles {
					if f != nil {
						if err := f.Close(); err != nil {
							t.Fatalf("final close %s: %v", name, err)
						}
					}
				}
				waitPoolWhole(t, fs) // every handle is closed: no pin or read-path reference is left
				if st := fs.Stats(); tc.readAhead > 0 && !h.framed && st.PrefetchSelfFetched == 0 {
					// The stale-bytes hunt only hunts if readers did fetch
					// blocks for themselves between the mutations.
					t.Errorf("seed %d: no stream read fetched its own block: %+v", seed, st)
				}
				// Remount: the durable state alone must still read back
				// byte-identical (containers reindexed from scratch).
				fs2 := mount(t, back, Options{
					ChunkSize: 512, BufferPoolSize: 16 << 10, IOThreads: 3,
					Codec: tc.cdc, ReadAhead: tc.readAhead,
				})
				h2 := &modelHarness{
					t: t, fs: fs2, model: h.model,
					handles: make(map[string]vfs.File),
					pending: make(map[string][][2]int64), framed: h.framed,
				}
				h2.verify(fmt.Sprintf("seed %d remount", seed))
			}
		})
	}
}
