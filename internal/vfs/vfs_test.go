package vfs

import (
	"testing"
	"testing/quick"
)

func TestCleanBasics(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", "."},
		{"/", "."},
		{".", "."},
		{"a", "a"},
		{"/a", "a"},
		{"a/", "a"},
		{"a//b", "a/b"},
		{"a/./b", "a/b"},
		{"a/b/..", "a"},
		{"../a", "a"},
		{"/../../a/b", "a/b"},
		{"a/b/c/", "a/b/c"},
	}
	for _, c := range cases {
		if got := Clean(c.in); got != c.want {
			t.Errorf("Clean(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestCleanIdempotent(t *testing.T) {
	f := func(s string) bool {
		c := Clean(s)
		return Clean(c) == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSplit(t *testing.T) {
	cases := []struct{ in, dir, base string }{
		{"a", ".", "a"},
		{"a/b", "a", "b"},
		{"a/b/c", "a/b", "c"},
		{"/x/y", "x", "y"},
	}
	for _, c := range cases {
		dir, base := Split(c.in)
		if dir != c.dir || base != c.base {
			t.Errorf("Split(%q) = (%q,%q), want (%q,%q)", c.in, dir, base, c.dir, c.base)
		}
	}
}

func TestAncestors(t *testing.T) {
	got := Ancestors("a/b/c")
	want := []string{"a", "a/b"}
	if len(got) != len(want) {
		t.Fatalf("Ancestors = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ancestors = %v, want %v", got, want)
		}
	}
	if Ancestors("a") != nil {
		t.Errorf("Ancestors(a) should be nil")
	}
	if Ancestors(".") != nil {
		t.Errorf("Ancestors(.) should be nil")
	}
}

func TestJoin(t *testing.T) {
	if got := Join("a", "b", "..", "c"); got != "a/c" {
		t.Errorf("Join = %q, want a/c", got)
	}
}

func TestValidName(t *testing.T) {
	for _, bad := range []string{"", ".", "/", "//"} {
		if ValidName(bad) {
			t.Errorf("ValidName(%q) = true, want false", bad)
		}
	}
	for _, good := range []string{"a", "/ckpt/file.0", "a/b/c"} {
		if !ValidName(good) {
			t.Errorf("ValidName(%q) = false, want true", good)
		}
	}
}

func TestOpenFlag(t *testing.T) {
	if !(WriteOnly | Create | Trunc).Writable() {
		t.Error("WriteOnly|Create|Trunc should be writable")
	}
	if (WriteOnly).Readable() {
		t.Error("WriteOnly should not be readable")
	}
	if !ReadWrite.Readable() || !ReadWrite.Writable() {
		t.Error("ReadWrite should read and write")
	}
	if !OpenFlag(0).Readable() {
		t.Error("zero flag should be ReadOnly and readable")
	}
}

func TestIsTemp(t *testing.T) {
	for _, name := range []string{
		TempName("ckpt"), TempName("dir/ckpt"), "ckpt.crfs-12~",
		"ckpt.crfs-compact~", "dir/ckpt.crfs-compact~",
		"ckpt.crfsd-3.put~", "dir/ckpt.crfsd-3.put~",
	} {
		if !IsTemp(name) {
			t.Errorf("IsTemp(%q) = false, want true", name)
		}
	}
	for _, name := range []string{
		"ckpt", "ckpt~", "ckpt.crfs-~", "ckpt.crfs-x1~", "ckpt.crfs-1",
		"ckpt.put~", "ckpt.crfs-compact", "dir.crfs-1~/ckpt", "dir.crfsd-1.put~/ckpt",
	} {
		if IsTemp(name) {
			t.Errorf("IsTemp(%q) = true, want false", name)
		}
	}
}
