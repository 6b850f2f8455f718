package stripe

import (
	"bytes"
	"io"
	"runtime"
	"testing"

	"crfs/internal/codec"
)

// TestChunkSinkFingerprintsWhatLands: however a replica reaches a
// chunkSink — read into the memory it lends, piece by piece; handed to
// Write; or the one and then the other — the sink matches its chunk when
// it got exactly the chunk's bytes, and not when it got one byte fewer,
// one byte more, or one byte changed.
func TestChunkSinkFingerprintsWhatLands(t *testing.T) {
	const size = 10_000
	data := payload(61, size)
	c := Chunk{Length: size, CRC: codec.Checksum(data)}
	changed := bytes.Clone(data)
	changed[size/2] ^= 1
	// deliver hands body to w as the client does: up to lent bytes into
	// the memory Next lends, the rest to Write, piece bytes at a time.
	deliver := func(w *chunkSink, body []byte, lent, piece int) {
		for len(body) > 0 && lent > 0 {
			k := min(len(w.Next()), piece, len(body), lent)
			if k == 0 {
				break
			}
			copy(w.Next(), body[:k])
			w.Landed(k)
			body, lent = body[k:], lent-k
		}
		for len(body) > 0 {
			k := min(piece, len(body))
			w.Write(body[:k])
			body = body[k:]
		}
	}
	for _, lent := range []int{0, 4321, size, size + 1} {
		for _, piece := range []int{1000, size + 5} {
			for _, tc := range []struct {
				name  string
				body  []byte
				match bool
			}{
				{"exact", data, true},
				{"short", data[:size-1], false},
				{"long", append(bytes.Clone(data), 0), false},
				{"changed", changed, false},
			} {
				w := &chunkSink{buf: make([]byte, size)}
				deliver(w, tc.body, lent, piece)
				if w.matches(c) != tc.match || w.n != int64(len(tc.body)) {
					t.Errorf("%s, %d bytes lent, %d-byte pieces: matches=%v n=%d, want %v and %d",
						tc.name, lent, piece, w.matches(c), w.n, tc.match, len(tc.body))
				}
				if tc.match && !bytes.Equal(w.buf, data) {
					t.Errorf("%s, %d bytes lent, %d-byte pieces: the buffer differs", tc.name, lent, piece)
				}
			}
		}
	}
}

// presizedNode is a MemNode whose Put reads the body into one buffer of
// the declared size, so a repair costs the node one copy of the chunk.
type presizedNode struct{ *MemNode }

func (n presizedNode) Put(name string, r io.Reader, size int64) error {
	data := make([]byte, size)
	if _, err := io.ReadFull(r, data); err != nil {
		return err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.objects[name] = data
	return nil
}

// TestScrubBoundsOverlongReplica: a replica four times as long as its
// manifest says is refused, counted in checksumFailed and repaired from
// the good copy. The scrub lands it in one chunk buffer rather than
// buffering it whole — the same buffer that then takes the good copy
// when the long replica is checked first — and the good copy stays in
// its buffer until the repair is pushed. Beyond those buffers the scrub's
// only large allocation is the repaired node's copy of the chunk.
func TestScrubBoundsOverlongReplica(t *testing.T) {
	const chunk = 1 << 20
	cfg := Config{ChunkSize: chunk, Replicas: 2}
	for _, tc := range []struct {
		name    string
		long    int // which of the chunk's replicas is long, in placement order
		buffers int // chunk buffers the scrub needs
	}{
		{"checked-first", 0, 1},
		{"checked-second", 1, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, mems := memCluster(3, cfg)
			byID := map[string]*MemNode{}
			nodes := make([]Node, len(mems))
			for i, m := range mems {
				byID[m.ID()] = m
				nodes[i] = presizedNode{m}
			}
			s := New(cfg, nodes...)
			body := payload(67, chunk)
			mustPut(t, s, "ckpt", body)
			m, err := s.readManifest("ckpt")
			if err != nil {
				t.Fatal(err)
			}
			holder, cname := byID[m.Chunks[0].Nodes[tc.long]], m.Chunks[0].Name
			holder.mu.Lock()
			holder.objects[cname] = payload(71, 4*chunk)
			holder.mu.Unlock()

			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			rep, err := s.Scrub()
			runtime.ReadMemStats(&after)
			if err != nil || rep.ChunksVerified != 1 || rep.ChunksRepaired != 1 {
				t.Fatalf("scrub: %v, %v", rep, err)
			}
			if st := s.Stats(); st.ChecksumFailed != 1 {
				t.Errorf("ChecksumFailed = %d, want 1", st.ChecksumFailed)
			}
			mustHoldNoBuffers(t, s)
			if n := s.bufs.HighWater(); n != tc.buffers {
				t.Errorf("scrub held %d chunk buffers at once, want %d", n, tc.buffers)
			}
			if alloc, most := after.TotalAlloc-before.TotalAlloc, uint64(tc.buffers+1)*chunk+256<<10; alloc > most {
				t.Errorf("scrub allocated %d KiB, at most %d KiB expected", alloc>>10, most>>10)
			}
			holder.mu.Lock()
			repaired := bytes.Equal(holder.objects[cname], body)
			holder.mu.Unlock()
			if !repaired {
				t.Error("the long replica was not rewritten with the chunk")
			}
			mustGet(t, s, "ckpt", body)
		})
	}
}
