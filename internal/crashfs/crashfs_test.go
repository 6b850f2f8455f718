package crashfs

import (
	"bytes"
	"testing"

	"crfs/internal/vfs"
)

func TestRecordReplayBasics(t *testing.T) {
	c := New()
	if err := c.MkdirAll("d/e"); err != nil {
		t.Fatal(err)
	}
	f, err := c.Open("d/e/f", vfs.WriteOnly|vfs.Create)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("hello world"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("WORLD"), 6); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(9); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := c.Rename("d/e/f", "d/e/g"); err != nil {
		t.Fatal(err)
	}

	// Full replay matches the live inner state.
	full, err := c.Replay(Point{Mut: c.Len()})
	if err != nil {
		t.Fatal(err)
	}
	want, err := vfs.ReadFile(c, "d/e/g")
	if err != nil {
		t.Fatal(err)
	}
	got, err := vfs.ReadFile(full, "d/e/g")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) || string(got) != "hello WOR" {
		t.Fatalf("full replay = %q, want %q", got, want)
	}

	// Every boundary replays without error and is monotone in history.
	for _, p := range c.Boundaries() {
		if _, err := c.Replay(p); err != nil {
			t.Fatalf("boundary %+v: %v", p, err)
		}
	}

	// A cut before the rename leaves the old name.
	muts := c.Mutations()
	renameIdx := -1
	for i, m := range muts {
		if m.Kind == KindRename {
			renameIdx = i
		}
	}
	pre, err := c.Replay(Point{Mut: renameIdx})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pre.Stat("d/e/f"); err != nil {
		t.Fatalf("pre-rename replay lost the old name: %v", err)
	}
	if _, err := pre.Stat("d/e/g"); err == nil {
		t.Fatal("pre-rename replay has the new name already")
	}
}

func TestReplayTornWrite(t *testing.T) {
	c := New()
	f, err := c.Open("f", vfs.WriteOnly|vfs.Create)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("0123456789"), 0); err != nil {
		t.Fatal(err)
	}
	f.Close()
	muts := c.Mutations()
	wi := -1
	for i, m := range muts {
		if m.Kind == KindWrite {
			wi = i
		}
	}
	torn, err := c.Replay(Point{Mut: wi, Bytes: 4})
	if err != nil {
		t.Fatal(err)
	}
	got, err := vfs.ReadFile(torn, "f")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "0123" {
		t.Fatalf("torn replay = %q, want prefix %q", got, "0123")
	}
	// TornPoints only cuts writes, strictly inside the payload.
	pts := c.TornPoints(wi)
	if len(pts) != 3 {
		t.Fatalf("torn points = %v, want 3 cuts", pts)
	}
	for _, p := range pts {
		if p.Bytes <= 0 || p.Bytes >= 10 {
			t.Fatalf("torn point %+v outside the payload", p)
		}
	}
	if pts := c.TornPoints(0); pts != nil {
		t.Fatalf("torn points of an open mutation = %v, want none", pts)
	}
}

func TestReplayRejectsBadPoints(t *testing.T) {
	c := New()
	f, _ := c.Open("f", vfs.WriteOnly|vfs.Create)
	f.WriteAt([]byte("abc"), 0)
	f.Close()
	for _, p := range []Point{
		{Mut: -1}, {Mut: c.Len() + 1}, {Mut: 0, Bytes: 1}, // cuts the open, not a write
		{Mut: 1, Bytes: 99}, {Mut: c.Len(), Bytes: 1},
	} {
		if _, err := c.Replay(p); err == nil {
			t.Fatalf("Replay(%+v) accepted an invalid point", p)
		}
	}
}

// TestReadsNotRecorded: read-only traffic must not grow the log.
func TestReadsNotRecorded(t *testing.T) {
	c := New()
	if err := vfs.WriteFile(c, "f", []byte("data")); err != nil {
		t.Fatal(err)
	}
	n := c.Len()
	if _, err := vfs.ReadFile(c, "f"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stat("f"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadDir("."); err != nil {
		t.Fatal(err)
	}
	rf, err := c.Open("f", vfs.ReadOnly)
	if err != nil {
		t.Fatal(err)
	}
	rf.Sync()
	rf.Close()
	if c.Len() != n {
		t.Fatalf("log grew from %d to %d on read-only traffic", n, c.Len())
	}
}

// TestReplayVolatile: in the volatile model a file keeps only the writes
// a later Sync of it (or a SyncAll) covers, a rename carries that state
// to the new name, and metadata lands in order either way.
func TestReplayVolatile(t *testing.T) {
	c := New()
	f, _ := c.Open("tmp", vfs.WriteOnly|vfs.Create)
	f.WriteAt([]byte("synced"), 0)
	f.Sync()
	f.WriteAt([]byte("LOST"), 0)
	f.Close()
	c.Rename("tmp", "a")
	vfs.WriteFile(c, "b", []byte("unsynced"))
	c.SyncDir(".")
	if k := c.Mutations()[c.Len()-1].Kind; k != KindSyncDir {
		t.Fatalf("last mutation %s, want syncdir", k)
	}
	n := c.Len()
	c.SyncAll()
	for _, tc := range []struct {
		p    Point
		a, b string
	}{
		{Point{Mut: n}, "LOSTed", "unsynced"},
		{Point{Mut: n, Volatile: true}, "synced", ""},
		{Point{Mut: n + 1, Volatile: true}, "LOSTed", "unsynced"},
	} {
		st, err := c.Replay(tc.p)
		if err != nil {
			t.Fatal(err)
		}
		a, aerr := vfs.ReadFile(st, "a")
		b, berr := vfs.ReadFile(st, "b")
		if aerr != nil || berr != nil || string(a) != tc.a || string(b) != tc.b {
			t.Errorf("%+v: a=%q (%v) b=%q (%v), want %q and %q", tc.p, a, aerr, b, berr, tc.a, tc.b)
		}
	}
}
