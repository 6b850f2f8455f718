package vfs_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"crfs/internal/memfs"
	"crfs/internal/osfs"
	"crfs/internal/vfs"
)

// TestTreePutRefusals: a Put whose body is not its declared size, or
// whose name is a temp, fails with ErrInvalid and leaves the store as it
// was: the previous object's bytes, and no temp.
func TestTreePutRefusals(t *testing.T) {
	m := memfs.New()
	tree := vfs.Tree{FS: m}
	if err := tree.Put("dir/f", strings.NewReader("old"), 3); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		what, name, body string
		size             int64
	}{
		{"short body", "dir/f", "new", 4},
		{"long body", "dir/f", "newer", 4},
		{"temp name", vfs.TempName("dir/f"), "new", 3},
	} {
		if err := tree.Put(tc.name, strings.NewReader(tc.body), tc.size); !errors.Is(err, vfs.ErrInvalid) {
			t.Errorf("%s: Put = %v, want ErrInvalid", tc.what, err)
		}
		if got, err := vfs.ReadFile(m, "dir/f"); err != nil || string(got) != "old" {
			t.Errorf("%s: dir/f = %q (err %v), want the old bytes", tc.what, got, err)
		}
		if ents, err := m.ReadDir("dir"); err != nil || len(ents) != 1 {
			t.Errorf("%s: dir holds %v (err %v), want only f", tc.what, ents, err)
		}
	}
}

// TestTreeListAllocs: a List of 40 objects in one directory — about what
// a striped store's node holds per checkpoint — allocates a few objects
// per entry: the entry, its path and the names slice's growth, no
// path.Join or Clean per entry and no re-sort of osfs's sorted listing
// (263 on memfs and 239 on osfs when it did both).
func TestTreeListAllocs(t *testing.T) {
	o, err := osfs.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		fsys  vfs.FS
		limit float64
	}{{memfs.New(), 180}, {o, 155}} {
		if err := tc.fsys.MkdirAll("ckpt"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			if err := vfs.WriteFile(tc.fsys, fmt.Sprintf("ckpt/rank%02d.c", i), nil); err != nil {
				t.Fatal(err)
			}
		}
		tree := vfs.Tree{FS: tc.fsys}
		if names, err := tree.List(); err != nil || len(names) != 40 || names[0] != "ckpt/rank00.c" {
			t.Fatalf("%T: List = %d names (%v), %v", tc.fsys, len(names), names[:min(len(names), 1)], err)
		}
		if a := testing.AllocsPerRun(20, func() { tree.List() }); a > tc.limit {
			t.Errorf("%T: List of 40 objects made %.0f allocations, want <= %.0f", tc.fsys, a, tc.limit)
		}
	}
}
