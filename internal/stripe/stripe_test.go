package stripe

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"crfs/internal/vfs"
)

// memCluster builds a store over n in-memory nodes with small chunks so
// modest payloads still stripe widely.
func memCluster(n int, cfg Config) (*Store, []*MemNode) {
	nodes := make([]*MemNode, n)
	for i := range nodes {
		nodes[i] = NewMemNode(fmt.Sprintf("mem-%02d", i))
	}
	s, _ := storeOver(cfg, nodes)
	return s, nodes
}

func payload(seed, n int) []byte {
	r := rand.New(rand.NewSource(int64(seed)))
	b := make([]byte, n)
	r.Read(b)
	return b
}

func mustPut(t *testing.T, s *Store, name string, body []byte) {
	t.Helper()
	if err := s.Put(name, bytes.NewReader(body), int64(len(body))); err != nil {
		t.Fatalf("PUT %s: %v", name, err)
	}
}

func mustGet(t *testing.T, s *Store, name string, want []byte) {
	t.Helper()
	var got bytes.Buffer
	n, err := s.Get(name, &got)
	if err != nil {
		t.Fatalf("GET %s: %v", name, err)
	}
	if n != int64(len(want)) || !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("GET %s: %d bytes, want %d identical", name, n, len(want))
	}
}

func TestPutGetRoundtrip(t *testing.T) {
	s, nodes := memCluster(4, Config{ChunkSize: 8 << 10, Replicas: 2})
	for i, size := range []int{0, 1, 8 << 10, (8 << 10) + 1, 100 << 10} {
		name := fmt.Sprintf("rt/ckpt-%d", i)
		body := payload(i, size)
		mustPut(t, s, name, body)
		mustGet(t, s, name, body)
	}
	// Every node holds a manifest copy of every object.
	for _, n := range nodes {
		manifests := 0
		for _, obj := range n.Objects() {
			if _, _, kind := ParseObjectName(obj); kind == KindManifest {
				manifests++
			}
		}
		if manifests != 5 {
			t.Errorf("node %s holds %d manifest copies, want 5", n.ID(), manifests)
		}
	}
	// Chunks are k-replicated: total replicas = 2 x logical chunks.
	st := s.Stats()
	wantChunks := int64(0)
	for _, size := range []int{0, 1, 8 << 10, (8 << 10) + 1, 100 << 10} {
		wantChunks += int64((size + (8<<10 - 1)) / (8 << 10))
	}
	if st.ChunksPut != 2*wantChunks {
		t.Errorf("ChunksPut = %d, want %d", st.ChunksPut, 2*wantChunks)
	}

	names, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 5 || names[0] != "rt/ckpt-0" {
		t.Errorf("List = %v", names)
	}
}

// TestGetSurvivesKilledNode: with k=2, any single dead node must not
// affect restore output.
func TestGetSurvivesKilledNode(t *testing.T) {
	s, nodes := memCluster(3, Config{ChunkSize: 4 << 10, Replicas: 2})
	body := payload(7, 256<<10)
	mustPut(t, s, "victim", body)
	for _, down := range nodes {
		down.SetDown(true)
		mustGet(t, s, "victim", body)
		down.SetDown(false)
	}
	if s.Stats().ReplicaFallbacks == 0 {
		t.Error("no replica fallbacks recorded while nodes were down")
	}
}

// TestGetSurvivesCorruptReplica: a silently corrupted replica is
// detected by its fingerprint and the restore reads the good copy; the
// next scrub repairs the bad replica, and a scrub after that finds
// zero residual checksum failures.
func TestGetSurvivesCorruptReplica(t *testing.T) {
	s, nodes := memCluster(3, Config{ChunkSize: 4 << 10, Replicas: 2})
	body := payload(11, 128<<10)
	mustPut(t, s, "rotted", body)

	// Corrupt every chunk replica living on node 0.
	corrupted := 0
	for _, obj := range nodes[0].Objects() {
		if _, _, kind := ParseObjectName(obj); kind == KindChunk {
			nodes[0].Corrupt(obj)
			corrupted++
		}
	}
	if corrupted == 0 {
		t.Fatal("node 0 held no chunk replicas to corrupt")
	}
	mustGet(t, s, "rotted", body)
	if s.Stats().ChecksumFailed == 0 {
		t.Error("corruption was not detected during GET")
	}

	rep, err := s.Scrub()
	if err != nil {
		t.Fatalf("scrub: %v (%s)", err, rep)
	}
	if rep.ChunksRepaired != corrupted {
		t.Errorf("scrub repaired %d chunks, want %d (%s)", rep.ChunksRepaired, corrupted, rep)
	}
	// Residual pass: everything must verify clean now.
	rep, err = s.Scrub()
	if err != nil {
		t.Fatalf("second scrub: %v", err)
	}
	if rep.ChunksRepaired != 0 || rep.ManifestsFixed != 0 || rep.LostChunks != 0 {
		t.Errorf("residual scrub not clean: %s", rep)
	}
	mustGet(t, s, "rotted", body)
}

// TestScrubRepairsMissingReplicaAndManifest: wiping one node entirely
// (disk replacement) must be fully healed by one scrub pass.
func TestScrubRepairsMissingReplicaAndManifest(t *testing.T) {
	s, nodes := memCluster(3, Config{ChunkSize: 4 << 10, Replicas: 2})
	body := payload(13, 64<<10)
	mustPut(t, s, "wiped", body)
	for _, obj := range nodes[1].Objects() {
		if err := nodes[1].Delete(obj); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := s.Scrub()
	if err != nil {
		t.Fatalf("scrub: %v (%s)", err, rep)
	}
	if rep.ManifestsFixed == 0 {
		t.Errorf("manifest copy not restored: %s", rep)
	}
	rep, err = s.Scrub()
	if err != nil || rep.ChunksRepaired != 0 || rep.ManifestsFixed != 0 {
		t.Errorf("residual scrub not clean: %s err=%v", rep, err)
	}
	mustGet(t, s, "wiped", body)
}

// TestScrubReportsLoss: when every replica of a chunk is corrupt, scrub
// must say so loudly rather than repair from garbage.
func TestScrubReportsLoss(t *testing.T) {
	s, nodes := memCluster(2, Config{ChunkSize: 4 << 10, Replicas: 2})
	body := payload(17, 8<<10)
	mustPut(t, s, "gone", body)
	for _, n := range nodes {
		for _, obj := range n.Objects() {
			if _, _, kind := ParseObjectName(obj); kind == KindChunk {
				n.Corrupt(obj)
			}
		}
	}
	rep, err := s.Scrub()
	if err == nil || rep.LostChunks == 0 {
		t.Fatalf("scrub of doubly-corrupt chunks: err=%v %s", err, rep)
	}
	if !errors.Is(err, ErrChunkLost) {
		t.Fatalf("loss error %v does not wrap ErrChunkLost", err)
	}
}

func TestDeleteRemovesEverything(t *testing.T) {
	s, nodes := memCluster(3, Config{ChunkSize: 4 << 10, Replicas: 2})
	mustPut(t, s, "doomed", payload(19, 64<<10))
	mustPut(t, s, "spared", payload(23, 16<<10))
	if err := s.Delete("doomed"); err != nil {
		t.Fatal(err)
	}
	// Idempotent.
	if err := s.Delete("doomed"); err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		for _, obj := range n.Objects() {
			if o, _, _ := ParseObjectName(obj); o == "doomed" {
				t.Errorf("node %s still holds %s", n.ID(), obj)
			}
		}
	}
	names, err := s.List()
	if err != nil || !reflect.DeepEqual(names, []string{"spared"}) {
		t.Fatalf("List after delete = %v, %v", names, err)
	}
	mustGet(t, s, "spared", payload(23, 16<<10))
}

// TestPutFailsCleanly: a Put that cannot complete (a node dies
// mid-upload) must not leave a restorable-looking object; the manifest
// never commits and strays are orphans until a manifest exists.
func TestPutFailsCleanly(t *testing.T) {
	s, nodes := memCluster(2, Config{ChunkSize: 4 << 10, Replicas: 2})
	nodes[1].SetDown(true)
	body := payload(31, 64<<10)
	if err := s.Put("halfway", bytes.NewReader(body), int64(len(body))); err == nil {
		t.Fatal("PUT with a dead replica target succeeded")
	}
	var sink bytes.Buffer
	if _, err := s.Get("halfway", &sink); err == nil {
		t.Fatal("GET of uncommitted object succeeded")
	}
	names, err := s.List()
	if err != nil || len(names) != 0 {
		t.Fatalf("List after failed put = %v, %v", names, err)
	}
	// After the node returns, a fresh Put under the same name wins and
	// scrub GCs the stale strays against the new manifest.
	nodes[1].SetDown(false)
	body2 := payload(37, 32<<10)
	mustPut(t, s, "halfway", body2)
	if _, err := s.Scrub(); err != nil {
		t.Fatal(err)
	}
	mustGet(t, s, "halfway", body2)

	// A negative size is refused before any node traffic, and the
	// version already there stays readable.
	err = s.Put("halfway", bytes.NewReader(body), -1)
	if !errors.Is(err, vfs.ErrInvalid) {
		t.Fatalf("PUT with size -1: %v, want ErrInvalid", err)
	}
	mustGet(t, s, "halfway", body2)
}

func TestNoNodes(t *testing.T) {
	s := New(Config{})
	if err := s.Put("x", bytes.NewReader(nil), 0); !errors.Is(err, ErrNoNodes) {
		t.Fatalf("Put on empty store: %v", err)
	}
	if _, err := s.Get("x", &bytes.Buffer{}); !errors.Is(err, ErrNoNodes) {
		t.Fatalf("Get on empty store: %v", err)
	}
}
