package stripe

import (
	"bytes"
	"fmt"
	"sort"

	"crfs/internal/obs"
)

// Report summarizes one scrub pass.
type Report struct {
	Objects          int // manifests scrubbed
	ChunksVerified   int // replica copies that matched their fingerprint
	ChunksRepaired   int // bad or missing replicas rewritten from a good copy
	ManifestsFixed   int // manifest copies rewritten (missing or corrupt)
	StraysDeleted    int // unreferenced chunk replicas garbage-collected
	Orphans          int // chunks with no manifest anywhere (left alone)
	LostChunks       int // chunks with zero clean replicas — data loss
	LostManifests    int // objects with zero intact manifest copies
	UnreachableNodes int // nodes that answered nothing this pass
}

func (r Report) String() string {
	return fmt.Sprintf("objects=%d verified=%d repaired=%d manifests_fixed=%d strays=%d orphans=%d lost_chunks=%d lost_manifests=%d unreachable=%d",
		r.Objects, r.ChunksVerified, r.ChunksRepaired, r.ManifestsFixed, r.StraysDeleted,
		r.Orphans, r.LostChunks, r.LostManifests, r.UnreachableNodes)
}

// Scrub walks every object on every reachable node, verifies each
// chunk replica against its manifest fingerprint, rewrites bad or
// missing replicas from a clean copy, re-replicates manifests to nodes
// missing an intact copy, and garbage-collects chunk replicas no
// manifest references on that node (leftovers of failed puts and
// repairs). Chunks whose object has no manifest anywhere are counted
// as orphans but left alone: they may belong to a Put that has not
// committed its manifest yet, so Scrub must not run concurrently with
// Put if orphan GC matters.
//
// The returned error is non-nil only for data loss (a chunk or
// manifest with zero clean copies); transient unreachability is
// reported in the Report instead.
func (s *Store) Scrub() (Report, error) {
	var rep Report
	var sp obs.Span
	if s.tracer.Enabled() {
		sp = s.tracer.Start("stripe.scrub")
		defer sp.End()
	}
	if len(s.ids) == 0 {
		return rep, ErrNoNodes
	}

	// Inventory every reachable node's namespace.
	listings := make(map[string][]string) // node id -> object names
	objects := make(map[string]bool)      // object names with a manifest somewhere
	for _, id := range s.ids {
		names, err := s.nodes[id].List()
		if err != nil {
			rep.UnreachableNodes++
			continue
		}
		listings[id] = names
		for _, n := range names {
			if obj, _, kind := ParseObjectName(n); kind == KindManifest {
				objects[obj] = true
			}
		}
	}

	var firstLoss error
	manifests := make(map[string]*Manifest)
	for _, obj := range sortedKeys(objects) {
		m := s.scrubObject(listings, obj, &rep)
		if m == nil {
			rep.LostManifests++
			if firstLoss == nil {
				firstLoss = fmt.Errorf("stripe: scrub: no intact manifest copy for %s", obj)
			}
			continue
		}
		manifests[obj] = m
		rep.Objects++
	}

	// Stray GC: a chunk replica on a node its manifest does not place it
	// on is dead weight (failed-put leftovers, repair races).
	for id, names := range listings {
		for _, n := range names {
			obj, idx, kind := ParseObjectName(n)
			if kind != KindChunk {
				continue
			}
			m, ok := manifests[obj]
			if !ok {
				if !objects[obj] {
					rep.Orphans++
				}
				continue
			}
			if idx < len(m.Chunks) && contains(m.Chunks[idx].Nodes, id) {
				continue
			}
			if err := s.nodes[id].Delete(n); err == nil {
				rep.StraysDeleted++
				s.c.straysDeleted.Add(1)
			}
		}
	}

	if rep.LostChunks > 0 && firstLoss == nil {
		firstLoss = fmt.Errorf("stripe: scrub: %d chunk(s) with zero clean replicas: %w", rep.LostChunks, ErrChunkLost)
	}
	return rep, firstLoss
}

// scrubObject repairs one object: its manifest replication, then every
// chunk replica. Returns the canonical manifest, or nil if no copy
// decoded intact.
func (s *Store) scrubObject(listings map[string][]string, obj string, rep *Report) *Manifest {
	m, err := s.readManifest(obj)
	if err != nil {
		return nil
	}
	// Re-replicate the canonical manifest to every reachable node whose
	// copy is missing or does not decode to the same bytes.
	enc := m.Encode()
	mname := ManifestName(obj)
	for id := range listings {
		var buf bytes.Buffer
		if _, err := s.nodes[id].Get(mname, &buf); err == nil && bytes.Equal(buf.Bytes(), enc) {
			continue
		}
		if err := s.nodes[id].Put(mname, bytes.NewReader(enc), int64(len(enc))); err == nil {
			rep.ManifestsFixed++
			s.c.manifestsFixed.Add(1)
		}
	}

	for idx := range m.Chunks {
		c := m.Chunks[idx]
		cname := ChunkName(obj, idx)
		// Each replica lands in a free-list chunk buffer, fingerprinted as
		// it arrives; the first that matches is kept as good until its
		// repairs are pushed, and the next replica gets a buffer of its own.
		var good, check []byte
		var bad []string // reachable replicas needing a rewrite
		var unreachable int
		for _, id := range c.Nodes {
			node, ok := s.nodes[id]
			if !ok {
				unreachable++
				continue
			}
			if _, listed := listings[id]; !listed {
				unreachable++
				continue
			}
			if check == nil {
				check = s.getBuf(c.Length)
			}
			sink := chunkSink{buf: check}
			if _, err := node.Get(cname, &sink); err != nil {
				bad = append(bad, id)
				continue
			}
			if !sink.matches(c) {
				s.c.checksumFailed.Add(1)
				bad = append(bad, id)
				continue
			}
			rep.ChunksVerified++
			if good == nil {
				good, check = check, nil
			}
		}
		if check != nil {
			s.putBuf(check)
		}
		if good == nil {
			if unreachable == 0 {
				rep.LostChunks++
			}
			// With unreachable replicas the chunk may still be fine; do not
			// declare loss, and there is nothing to repair from.
			continue
		}
		for _, id := range bad {
			if err := s.nodes[id].Put(cname, bytes.NewReader(good), c.Length); err == nil {
				rep.ChunksRepaired++
				s.c.chunksRepaired.Add(1)
			}
		}
		s.putBuf(good)
	}
	return m
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
