package stripe

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestFailedOverwriteKeepsPreviousGeneration: an overwrite that fails —
// a node refusing chunk pushes after the first few, or a body source
// failing mid-object — leaves the previous version restorable byte for
// byte. A scrub then finds nothing lost and sweeps what the failed Put
// left, and a second scrub has nothing left to delete.
func TestFailedOverwriteKeepsPreviousGeneration(t *testing.T) {
	noLeaks(t)
	const chunk = 8 << 10
	cfg := Config{ChunkSize: chunk, Replicas: 2}
	v1 := payload(101, 12*chunk+300)
	v2 := payload(103, len(v1))
	stillV1 := func(t *testing.T, s *Store) {
		t.Helper()
		mustGet(t, s, "ckpt", v1)
		rep, err := s.Scrub()
		if err != nil || rep.LostChunks != 0 || rep.LostManifests != 0 {
			t.Fatalf("scrub after the failed overwrite: %v (%s)", err, rep)
		}
		rep, err = s.Scrub()
		if err != nil || rep.StraysDeleted != 0 || rep.ChunksRepaired != 0 || rep.ManifestsFixed != 0 {
			t.Fatalf("second scrub: %v (%s)", err, rep)
		}
		mustGet(t, s, "ckpt", v1)
	}
	for _, after := range []int{0, 1, 3, 6} {
		t.Run(fmt.Sprintf("node-refuses-after-%d-pushes", after), func(t *testing.T) {
			s, _, fn := faultCluster(cfg)
			mustPut(t, s, "ckpt", v1)
			var pushes atomic.Int32
			fn.refusing(func(name string) bool {
				_, _, kind := ParseObjectName(name)
				return kind == KindChunk && pushes.Add(1) > int32(after)
			})
			err := s.Put("ckpt", bytes.NewReader(v2), int64(len(v2)))
			var nf *nodeFault
			if !errors.As(err, &nf) {
				t.Fatalf("overwrite with a node refusing chunks: %v", err)
			}
			fn.refusing(nil)
			mustHoldNoBuffers(t, s)
			stillV1(t, s)
		})
	}
	t.Run("body-source-fails", func(t *testing.T) {
		s, _ := memCluster(3, cfg)
		mustPut(t, s, "ckpt", v1)
		errSource := errors.New("body source failed")
		err := s.Put("ckpt", &piecesBody{b: v2, piece: chunk * 3 / 2, stop: 7*chunk + chunk/2, err: errSource}, int64(len(v2)))
		if !errors.Is(err, errSource) {
			t.Fatalf("overwrite from a failing body: %v", err)
		}
		mustHoldNoBuffers(t, s)
		stillV1(t, s)
	})
}

// TestSharedChunksUnderConcurrency: in one Store, two Puts whose objects
// share chunks with each other and with an object being deleted, an
// overwrite whose versions share chunks with them too, and Gets of every
// name all run at once. Every Get returns a version that name had, whole,
// or fs.ErrNotExist where the name was not committed; a Get racing the
// overwrite returns the old or the new version. Afterwards every name
// reads its last version, and after a scrub no node holds a chunk that
// no manifest places there.
func TestSharedChunksUnderConcurrency(t *testing.T) {
	noLeaks(t)
	const chunk = 4 << 10
	s, nodes := memCluster(3, Config{ChunkSize: chunk, Replicas: 2})
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	shared := payload(201, 6*chunk)
	a := cat(payload(203, 2*chunk), shared, payload(205, chunk+77))
	b := cat(payload(207, 3*chunk), shared, payload(209, 100))
	c1 := cat(payload(211, 12*chunk), shared[:2*chunk])
	c2 := cat(payload(211, 6*chunk), payload(213, 6*chunk), shared[2*chunk:4*chunk])
	d := cat(shared[4*chunk:], payload(215, 3*chunk))
	mustPut(t, s, "c", c1)
	mustPut(t, s, "d", d)

	// Each name's Gets run until every writer has returned.
	versions := map[string][][]byte{"a": {nil, a}, "b": {nil, b}, "c": {c1, c2}, "d": {d, nil}}
	var writers, readers sync.WaitGroup
	run := func(wg *sync.WaitGroup, f func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := f(); err != nil {
				t.Error(err)
			}
		}()
	}
	put := func(name string, body []byte) func() error {
		return func() error { return s.Put(name, bytes.NewReader(body), int64(len(body))) }
	}
	run(&writers, put("a", a))
	run(&writers, put("b", b))
	run(&writers, put("c", c2))
	run(&writers, func() error { return s.Delete("d") })
	written := make(chan struct{})
	for name, want := range versions {
		run(&readers, func() error {
			for {
				var got bytes.Buffer
				_, err := s.Get(name, &got)
				ok := false
				for _, v := range want {
					ok = ok || (v == nil && errors.Is(err, fs.ErrNotExist)) || (v != nil && err == nil && bytes.Equal(got.Bytes(), v))
				}
				if !ok {
					return fmt.Errorf("GET %s: %d bytes, %v: no version the name had", name, got.Len(), err)
				}
				select {
				case <-written:
					return nil
				default:
				}
			}
		})
	}
	writers.Wait()
	close(written)
	readers.Wait()
	if t.Failed() {
		return
	}

	mustGet(t, s, "a", a)
	mustGet(t, s, "b", b)
	mustGet(t, s, "c", c2)
	if _, err := s.Get("d", new(bytes.Buffer)); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("GET of deleted d: %v", err)
	}
	if rep, err := s.Scrub(); err != nil || rep.LostChunks != 0 {
		t.Fatalf("scrub: %v (%s)", err, rep)
	}
	placed := map[replica]bool{}
	for _, name := range []string{"a", "b", "c"} {
		m, err := s.readManifest(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range m.Chunks {
			for _, id := range c.Nodes {
				placed[replica{id, c.Name}] = true
			}
		}
	}
	for _, n := range nodes {
		for _, name := range n.Objects() {
			if _, _, kind := ParseObjectName(name); kind == KindChunk && !placed[replica{n.ID(), name}] {
				t.Errorf("node %s holds %s, which no manifest places there", n.ID(), name)
			}
		}
	}
}

// TestGetHoldsOffTheSweep: a Get whose sink stalls after the first
// chunk, while an overwrite of its name commits, still delivers the old
// version whole: the overwrite's sweep waits for the Get to finish.
func TestGetHoldsOffTheSweep(t *testing.T) {
	noLeaks(t)
	const chunk = 4 << 10
	s, nodes := memCluster(3, Config{ChunkSize: chunk, Replicas: 2})
	v1, v2 := payload(301, 40*chunk), payload(303, 40*chunk)
	mustPut(t, s, "ckpt", v1)

	stalled, release := make(chan struct{}), make(chan struct{})
	var got bytes.Buffer
	got1 := make(chan error, 1)
	go func() {
		_, err := s.Get("ckpt", writerFunc(func(p []byte) (int, error) {
			if got.Len() == 0 {
				close(stalled)
				<-release
			}
			return got.Write(p)
		}))
		got1 <- err
	}()
	<-stalled
	put := make(chan error, 1)
	go func() { put <- s.Put("ckpt", bytes.NewReader(v2), int64(len(v2))) }()
	// Wait for the overwrite's manifest to land on every node.
	want := map[string]bool{}
	for _, name := range chunkNames(v2, chunk) {
		want[name] = true
	}
	deadline := time.Now().Add(10 * time.Second)
	for committed := false; !committed; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			close(release)
			t.Fatal("the overwrite did not commit while the Get was stalled")
		}
		committed = true
		for _, n := range nodes {
			m, err := s.readCopy(n.ID(), ManifestName("ckpt"))
			committed = committed && err == nil && want[m.Chunks[0].Name]
		}
	}
	close(release)
	if err := <-got1; err != nil || !bytes.Equal(got.Bytes(), v1) {
		t.Fatalf("GET racing an overwrite: %d bytes, %v; want the old version whole", got.Len(), err)
	}
	if err := <-put; err != nil {
		t.Fatal(err)
	}
	mustGet(t, s, "ckpt", v2)
}

// unplaced counts the chunk replicas on nodes that no manifest copy on
// any of them places there.
func unplaced(t *testing.T, nodes []*MemNode) int {
	t.Helper()
	placed := map[replica]bool{}
	for _, n := range nodes {
		for _, name := range n.Objects() {
			if _, _, kind := ParseObjectName(name); kind != KindManifest {
				continue
			}
			var copy bytes.Buffer
			if _, err := n.Get(name, &copy); err != nil {
				t.Fatal(err)
			}
			m, err := DecodeManifest(copy.Bytes())
			if err != nil {
				t.Fatalf("%s on %s: %v", name, n.ID(), err)
			}
			for _, c := range m.Chunks {
				for _, id := range c.Nodes {
					placed[replica{id, c.Name}] = true
				}
			}
		}
	}
	count := 0
	for _, n := range nodes {
		for _, name := range n.Objects() {
			if _, _, kind := ParseObjectName(name); kind == KindChunk && !placed[replica{n.ID(), name}] {
				count++
			}
		}
	}
	return count
}

// TestSweepKeepsWhatAnyCopyPlaces: a Store over two of three nodes
// overwrites an object whose old version the third node, the first in
// ID order, still holds a copy of. Back over all three, the next sweep
// keeps what every copy places: the new version still restores from the
// two nodes that took it, and the old copy's replicas on the third node
// stay.
func TestSweepKeepsWhatAnyCopyPlaces(t *testing.T) {
	const chunk = 4 << 10
	cfg := Config{ChunkSize: chunk, Replicas: 2}
	all, nodes := memCluster(3, cfg)
	v1, v2 := payload(401, 10*chunk), payload(403, 10*chunk)
	mustPut(t, all, "ckpt", v1)
	mustPut(t, all, "other", payload(405, 3*chunk))
	part := New(cfg, nodes[1], nodes[2])
	mustPut(t, part, "ckpt", v2)
	old, err := all.readCopy(nodes[0].ID(), ManifestName("ckpt"))
	if err != nil {
		t.Fatal(err)
	}

	mustPut(t, all, "other", payload(407, 3*chunk)) // an overwrite, so a sweep
	mustGet(t, part, "ckpt", v2)
	for _, c := range old.Chunks {
		if contains(c.Nodes, nodes[0].ID()) && !contains(nodes[0].Objects(), c.Name) {
			t.Errorf("the sweep deleted %s from %s, where the old copy places it", c.Name, nodes[0].ID())
		}
	}
}

// TestSweepStopsAtAnUnreadableCopy: while one node's copy of a manifest
// does not decode, what that copy places is not known, so an overwrite
// deletes nothing. The scrub that rewrites the copy then sweeps what the
// overwrite left.
func TestSweepStopsAtAnUnreadableCopy(t *testing.T) {
	const chunk = 4 << 10
	s, nodes := memCluster(3, Config{ChunkSize: chunk, Replicas: 2})
	mustPut(t, s, "a", payload(411, 6*chunk))
	mustPut(t, s, "b", payload(413, 6*chunk))
	if !nodes[2].Corrupt(ManifestName("b")) {
		t.Fatal("no copy of b's manifest to corrupt")
	}
	before := replicas(nodes)
	v2 := payload(415, 6*chunk)
	mustPut(t, s, "a", v2)
	after := replicas(nodes)
	for r := range before {
		if !after[r] {
			t.Fatalf("the overwrite swept %s from %s with a manifest copy unread", r.name, r.node)
		}
	}
	rep, err := s.Scrub()
	if err != nil || rep.ManifestsFixed != 1 || rep.StraysDeleted != 12 {
		t.Fatalf("scrub: %v (%s)", err, rep)
	}
	if n := unplaced(t, nodes); n != 0 {
		t.Fatalf("%d replicas no manifest places after the scrub", n)
	}
	mustGet(t, s, "a", v2)
}

// replicas returns every chunk replica the nodes hold.
func replicas(nodes []*MemNode) map[replica]bool {
	held := map[replica]bool{}
	for _, n := range nodes {
		for _, name := range n.Objects() {
			if _, _, kind := ParseObjectName(name); kind == KindChunk {
				held[replica{n.ID(), name}] = true
			}
		}
	}
	return held
}

// TestScrubChecksEveryPlacementOfAName: two Stores over different pairs
// of three nodes put the same bytes under two names, so the two
// manifests place the one chunk on different nodes. A scrub over all
// three checks the chunk on every node either manifest places it on,
// and rewrites the rotten replica only the second one places.
func TestScrubChecksEveryPlacementOfAName(t *testing.T) {
	const chunk = 4 << 10
	cfg := Config{ChunkSize: chunk, Replicas: 2}
	all, nodes := memCluster(3, cfg)
	body := payload(417, chunk)
	mustPut(t, New(cfg, nodes[0], nodes[1]), "x", body)
	mustPut(t, New(cfg, nodes[0], nodes[2]), "y", body)
	name := contentName(body)
	if !nodes[2].Corrupt(name) {
		t.Fatalf("%s holds no %s", nodes[2].ID(), name)
	}
	rep, err := all.Scrub()
	if err != nil || rep.ChunksVerified != 2 || rep.ChunksRepaired != 1 || rep.LostChunks != 0 {
		t.Fatalf("scrub: %v (%s)", err, rep)
	}
	var got bytes.Buffer
	if _, err := nodes[2].Get(name, &got); err != nil || !bytes.Equal(got.Bytes(), body) {
		t.Fatalf("%s's replica after the scrub: %v", nodes[2].ID(), err)
	}
	mustGet(t, all, "y", body)
}

// TestOverwritesSweepInProportion: a sweep reads every manifest copy, so
// overwrites and deletes sweep only once the versions they replaced
// since the last sweep reach a quarter of the objects. Over eight
// objects the first overwrite leaves its old replicas and the second
// sweeps both versions'; deletes count the same way.
func TestOverwritesSweepInProportion(t *testing.T) {
	const chunk = 4 << 10
	s, nodes := memCluster(3, Config{ChunkSize: chunk, Replicas: 2})
	bodies := make([][]byte, 8)
	for i := range bodies {
		bodies[i] = payload(421+i, 3*chunk)
		mustPut(t, s, fmt.Sprintf("obj%d", i), bodies[i])
	}
	steps := []struct {
		op     func()
		strays int
	}{
		{func() { bodies[0] = payload(431, 3*chunk); mustPut(t, s, "obj0", bodies[0]) }, 6},
		{func() { bodies[1] = payload(433, 3*chunk); mustPut(t, s, "obj1", bodies[1]) }, 0},
		{func() { s.Delete("obj6"); bodies[6] = nil }, 6},
		{func() { s.Delete("obj7"); bodies[7] = nil }, 0},
	}
	for i, step := range steps {
		step.op()
		if n := unplaced(t, nodes); n != step.strays {
			t.Fatalf("step %d: %d replicas no manifest places, want %d", i, n, step.strays)
		}
	}
	for i, body := range bodies {
		if body != nil {
			mustGet(t, s, fmt.Sprintf("obj%d", i), body)
		}
	}
}
