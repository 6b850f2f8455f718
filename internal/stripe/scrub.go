package stripe

import (
	"bytes"
	"fmt"

	"crfs/internal/obs"
)

// Report summarizes one scrub pass.
type Report struct {
	Objects          int // manifests scrubbed
	ChunksVerified   int // replica copies that matched their fingerprint
	ChunksRepaired   int // bad or missing replicas rewritten from a good copy
	ManifestsFixed   int // manifest copies rewritten (missing or corrupt)
	StraysDeleted    int // chunk replicas no manifest references, swept
	LostChunks       int // chunks with zero clean replicas — data loss
	LostManifests    int // objects with zero intact manifest copies
	UnreachableNodes int // nodes that answered nothing this pass
}

func (r Report) String() string {
	return fmt.Sprintf("objects=%d verified=%d repaired=%d manifests_fixed=%d strays=%d lost_chunks=%d lost_manifests=%d unreachable=%d",
		r.Objects, r.ChunksVerified, r.ChunksRepaired, r.ManifestsFixed, r.StraysDeleted,
		r.LostChunks, r.LostManifests, r.UnreachableNodes)
}

// Scrub walks every object on every reachable node, verifies each
// chunk replica against its manifest fingerprint, rewrites bad or
// missing replicas from a clean copy and re-replicates manifests to
// nodes missing an intact copy, all under the shared lock. Then it
// sweeps every chunk replica no committed manifest references —
// leftovers of failed Puts, of racing overwrites and of repairs.
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
	firstLoss := s.verify(&rep)
	s.mu.Lock()
	rep.StraysDeleted = s.sweep(nil)
	s.mu.Unlock()
	if rep.LostChunks > 0 && firstLoss == nil {
		firstLoss = fmt.Errorf("stripe: scrub: %d chunk(s) with zero clean replicas: %w", rep.LostChunks, ErrChunkLost)
	}
	return rep, firstLoss
}

// verify is Scrub's check and repair under the shared lock. Manifests
// may place one chunk name on different nodes — two Stores over
// different members put it — so each name is verified once, on every
// node any manifest places it on. It returns the first lost manifest.
func (s *Store) verify(rep *Report) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.epoch.Add(1)
	defer s.epoch.Add(1)
	listings, missing := s.listAll()
	rep.UnreachableNodes = missing
	var firstLoss error
	chunks := make(map[string]*Chunk) // by name, Nodes the union of placements
	var names []string                // chunks' keys, in the order first placed
	for _, obj := range listings.objects() {
		m, ok := s.scrubManifest(listings, obj, rep)
		if !ok {
			rep.LostManifests++
			if firstLoss == nil {
				firstLoss = fmt.Errorf("stripe: scrub: no intact manifest copy for %s", obj)
			}
			continue
		}
		rep.Objects++
		for _, c := range m.Chunks {
			u := chunks[c.Name]
			if u == nil {
				u = &Chunk{Length: c.Length, CRC: c.CRC, Name: c.Name}
				chunks[c.Name] = u
				names = append(names, c.Name)
			}
			for _, id := range c.Nodes {
				if !contains(u.Nodes, id) {
					u.Nodes = append(u.Nodes, id)
				}
			}
		}
	}
	for _, name := range names {
		s.scrubChunk(listings, *chunks[name], rep)
	}
	return firstLoss
}

// scrubManifest reads obj's manifest and re-replicates it to every
// reachable node whose copy is missing or does not decode to the same
// bytes. It reports whether a copy decoded intact.
func (s *Store) scrubManifest(listings holdings, obj string, rep *Report) (*Manifest, bool) {
	m, err := s.readManifest(obj)
	if err != nil {
		return nil, false
	}
	enc := m.Encode()
	mname := ManifestName(obj)
	for id := range listings {
		if c, err := s.readCopy(id, mname); err == nil && bytes.Equal(c.Encode(), enc) {
			continue
		}
		if err := s.nodes[id].Put(mname, bytes.NewReader(enc), int64(len(enc))); err == nil {
			rep.ManifestsFixed++
			s.c.manifestsFixed.Add(1)
		}
	}
	return m, true
}

// scrubChunk verifies every replica of c and rewrites the bad or missing
// ones from a clean copy.
func (s *Store) scrubChunk(listings holdings, c Chunk, rep *Report) {
	cname := c.Name
	// Each replica lands in a free-list chunk buffer, fingerprinted as it
	// arrives; the first that matches is kept as good until its repairs
	// are pushed, and the next replica gets a buffer of its own.
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
			check = s.bufs.Get(int(c.Length))
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
	s.bufs.Put(check)
	if good == nil {
		if unreachable == 0 {
			rep.LostChunks++
		}
		// With unreachable replicas the chunk may still be fine; do not
		// declare loss, and there is nothing to repair from.
		return
	}
	for _, id := range bad {
		if err := s.nodes[id].Put(cname, bytes.NewReader(good), c.Length); err == nil {
			rep.ChunksRepaired++
			s.c.chunksRepaired.Add(1)
		}
	}
	s.bufs.Put(good)
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}
