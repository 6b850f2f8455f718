package stripe

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// TestModelDifferential drives the striped store and a trivial
// in-memory model through the same random operation stream — puts,
// overwrites, deletes, node kills with repair — and demands byte
// identity after every operation and again after a "remount" (a fresh
// coordinator over the surviving nodes). This is the striped flavour of
// the repo's model-based differential tests: the model is obviously
// correct, so any divergence is a coordinator bug.
func TestModelDifferential(t *testing.T) {
	const (
		nNodes    = 5
		replicas  = 2
		chunkSize = 4 << 10
		ops       = 120
	)
	rng := rand.New(rand.NewSource(42))
	cfg := Config{ChunkSize: chunkSize, Replicas: replicas}
	s, nodes := memCluster(nNodes, cfg)
	model := map[string][]byte{}

	names := []string{"a.ckpt", "b.ckpt", "dir/c.ckpt", "d.ckpt"}
	verify := func(step string, st *Store) {
		t.Helper()
		for name, want := range model {
			var got bytes.Buffer
			n, err := st.Get(name, &got)
			if err != nil {
				t.Fatalf("%s: GET %s: %v", step, name, err)
			}
			if n != int64(len(want)) || !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("%s: GET %s: %d bytes differ from model's %d", step, name, n, len(want))
			}
		}
		listed, err := st.List()
		if err != nil {
			t.Fatalf("%s: LIST: %v", step, err)
		}
		wantNames := make([]string, 0, len(model))
		for n := range model {
			wantNames = append(wantNames, n)
		}
		sort.Strings(wantNames)
		if !reflect.DeepEqual(listed, wantNames) {
			t.Fatalf("%s: LIST = %v, model %v", step, listed, wantNames)
		}
	}

	for op := 0; op < ops; op++ {
		step := fmt.Sprintf("op %d", op)
		switch r := rng.Intn(10); {
		case r < 5: // put or overwrite
			name := names[rng.Intn(len(names))]
			body := make([]byte, rng.Intn(12*chunkSize))
			rng.Read(body)
			if err := s.Put(name, bytes.NewReader(body), int64(len(body))); err != nil {
				t.Fatalf("%s: PUT %s (%d bytes): %v", step, name, len(body), err)
			}
			model[name] = body
		case r < 7: // delete
			name := names[rng.Intn(len(names))]
			if err := s.Delete(name); err != nil {
				t.Fatalf("%s: DEL %s: %v", step, name, err)
			}
			delete(model, name)
		case r < 9: // kill a node, verify reads through the failure, revive, repair
			victim := nodes[rng.Intn(nNodes)]
			victim.SetDown(true)
			verify(step+" (node down)", s)
			victim.SetDown(false)
			if rep, err := s.Scrub(); err != nil {
				t.Fatalf("%s: scrub after revive: %v (%s)", step, err, rep)
			}
		default: // silent corruption of one random replica, then repair
			victim := nodes[rng.Intn(nNodes)]
			objs := victim.Objects()
			var chunks []string
			for _, o := range objs {
				if _, _, kind := ParseObjectName(o); kind == KindChunk {
					chunks = append(chunks, o)
				}
			}
			if len(chunks) > 0 {
				victim.Corrupt(chunks[rng.Intn(len(chunks))])
				verify(step+" (corrupt replica)", s)
				if rep, err := s.Scrub(); err != nil {
					t.Fatalf("%s: scrub after corruption: %v (%s)", step, err, rep)
				}
			}
		}
		verify(step, s)
	}

	// One node refuses its manifest copy: the Put fails naming that node,
	// and the same Put after the node heals commits — the store then
	// matches the model again, the half-committed attempt forgotten.
	s, fns := storeOver(cfg, nodes, 2)
	fn := fns[0]
	fn.refusing(func(name string) bool {
		_, _, kind := ParseObjectName(name)
		return kind == KindManifest
	})
	body := make([]byte, 7*chunkSize+11)
	rng.Read(body)
	err := s.Put("e.ckpt", bytes.NewReader(body), int64(len(body)))
	var nf *nodeFault
	if !errors.As(err, &nf) || nf.node != fn.ID() || nf.name != ManifestName("e.ckpt") {
		t.Fatalf("PUT with one node refusing its manifest copy: %v", err)
	}
	fn.refusing(nil)
	mustPut(t, s, "e.ckpt", body)
	model["e.ckpt"] = body
	verify("manifest copy refused, then retried", s)

	// Remount: a brand-new coordinator over the same nodes must see the
	// identical store — all state lives in manifests, none in the
	// coordinator.
	s2, _ := storeOver(cfg, nodes)
	verify("remount", s2)

	// And a final scrub on the remounted store must find nothing wrong.
	rep, err := s2.Scrub()
	if err != nil {
		t.Fatalf("final scrub: %v (%s)", err, rep)
	}
	if rep.LostChunks != 0 || rep.LostManifests != 0 {
		t.Fatalf("final scrub reports loss: %s", rep)
	}
}
