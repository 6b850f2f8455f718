package stripe

import (
	"bytes"
	"fmt"

	"crfs/internal/obs"
)

// RebalanceReport summarizes one rebalancing pass.
type RebalanceReport struct {
	Objects       int // manifests examined
	ChunksMoved   int // replicas copied to newly responsible nodes
	ChunksDropped int // replicas deleted from no-longer-responsible nodes
}

func (r RebalanceReport) String() string {
	return fmt.Sprintf("objects=%d moved=%d dropped=%d", r.Objects, r.ChunksMoved, r.ChunksDropped)
}

// Rebalance realigns every object's replica placement with the current
// membership: after a Join, each chunk whose rendezvous top-k now
// includes the new node gains a copy there; after a Drain, every chunk
// replica on the draining node moves to the node that takes its place.
// Rendezvous hashing keeps the moved set minimal — about k/N of chunks
// per membership change — with no ring state to migrate.
//
// Ordering is crash-safe per object: new replicas are copied first, the
// updated manifest then commits to every node, and only then are the
// old replicas dropped. A crash between steps leaves either the old
// manifest (pointing at still-present old replicas) or the new one
// (pointing at the already-copied new replicas) plus strays that the
// next Scrub collects.
func (s *Store) Rebalance() (RebalanceReport, error) {
	var rep RebalanceReport
	all, placeable := s.members()
	if len(placeable) == 0 {
		return rep, ErrNoNodes
	}

	objects, err := s.List()
	if err != nil {
		return rep, err
	}
	for _, obj := range objects {
		m, err := s.readManifest(all, obj)
		if err != nil {
			return rep, fmt.Errorf("stripe: rebalance %s: %w", obj, err)
		}
		k := m.Replicas
		if k > len(placeable) {
			k = len(placeable)
		}
		type drop struct {
			node  string
			chunk int
		}
		var drops []drop
		changed := false
		for idx := range m.Chunks {
			c := &m.Chunks[idx]
			cname := ChunkName(obj, idx)
			want := Place(placeable, cname, k)
			if equalStrings(want, c.Nodes) {
				continue
			}
			changed = true
			// Copy to newly responsible nodes from a verified replica.
			var buf []byte
			for _, id := range want {
				if contains(c.Nodes, id) {
					continue
				}
				if buf == nil {
					buf, err = s.fetchChunk(all, m, idx, obs.SpanContext{})
					if err != nil {
						return rep, fmt.Errorf("stripe: rebalance %s chunk %d: %w", obj, idx, err)
					}
				}
				node, ok := all[id]
				if !ok {
					return rep, fmt.Errorf("stripe: rebalance %s chunk %d: node %s detached", obj, idx, id)
				}
				release := s.slot(id)
				err := node.Put(cname, bytes.NewReader(buf), c.Length)
				release()
				if err != nil {
					return rep, fmt.Errorf("stripe: rebalance %s chunk %d to %s: %w", obj, idx, id, err)
				}
				rep.ChunksMoved++
				s.c.chunksMoved.Add(1)
			}
			s.putBuf(buf)
			for _, id := range c.Nodes {
				if !contains(want, id) {
					drops = append(drops, drop{node: id, chunk: idx})
				}
			}
			c.Nodes = want
		}
		if changed {
			if err := s.writeManifest(all, m); err != nil {
				return rep, err
			}
			for _, d := range drops {
				if node, ok := all[d.node]; ok {
					if err := node.Delete(ChunkName(obj, d.chunk)); err == nil {
						rep.ChunksDropped++
					}
				}
			}
		}
		rep.Objects++
	}
	return rep, nil
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
