package vfs_test

import (
	"strconv"
	"strings"
	"testing"

	"crfs/internal/memfs"
	"crfs/internal/vfs"
)

// TestReplaceStepsPastStrandedTemp: a temp name a stranded file still
// holds is skipped, never written through.
func TestReplaceStepsPastStrandedTemp(t *testing.T) {
	m := memfs.New()
	if err := vfs.WriteFile(m, "f", []byte("old")); err != nil {
		t.Fatal(err)
	}
	seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(vfs.TempName("f"), "f.crfs-"), "~"), 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	stranded := "f.crfs-" + strconv.FormatUint(seq+1, 10) + "~"
	if err := vfs.WriteFile(m, stranded, []byte("stranded")); err != nil {
		t.Fatal(err)
	}
	if err := vfs.Replace(m, "f", func(f vfs.File) error {
		if f.Name() == stranded {
			t.Errorf("Replace wrote through the stranded temp %s", stranded)
		}
		_, err := f.WriteAt([]byte("new"), 0)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got, err := vfs.ReadFile(m, "f"); err != nil || string(got) != "new" {
		t.Fatalf("f = %q (err %v), want new", got, err)
	}
	if got, err := vfs.ReadFile(m, stranded); err != nil || string(got) != "stranded" {
		t.Fatalf("stranded temp = %q (err %v), want it untouched", got, err)
	}
}
