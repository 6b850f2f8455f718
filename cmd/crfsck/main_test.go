package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// copyFixtures copies the fixtures of dir that keep selects into a fresh
// directory, so a run that rewrites containers never touches testdata.
func copyFixtures(t *testing.T, dir string, keep func(name string) bool) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !keep(e.Name()) {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestExitStatus pins the fsck-style exit status over the codec fixtures:
// 2 for proven damage, 0 for a clean directory, 1 for a usage error.
func TestExitStatus(t *testing.T) {
	const fixtures = "../../internal/codec/testdata"
	healthy := copyFixtures(t, fixtures+"/golden", func(name string) bool {
		return strings.HasSuffix(name, ".crfc") && !strings.HasSuffix(name, "-torn.crfc")
	})
	// The recorded v1 gap: a flipped byte in a v1 raw container scrubs
	// clean, because raw payloads decode at any contents and v1 carries no
	// checksum. If this ever exits nonzero, v1 grew verification it does
	// not carry and the compatibility contract broke.
	v1gap := copyFixtures(t, fixtures+"/corrupt", func(name string) bool { return name == "raw-v1-bitrot.crfc" })
	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"golden set holds a torn container", []string{fixtures + "/golden"}, 2},
		{"bit-rotted v2 containers fail their checksum", []string{fixtures + "/corrupt"}, 2},
		{"healthy copy scrubs clean and compacts", []string{"-compact", healthy}, 0},
		{"v1 gap stays pinned", []string{v1gap}, 0},
		{"no directory given", nil, 1},
		{"directory does not exist", []string{filepath.Join(healthy, "missing")}, 1},
	} {
		var stdout, stderr bytes.Buffer
		if got := run(tc.args, &stdout, &stderr); got != tc.want {
			t.Errorf("%s: crfsck %v exited %d, want %d\nstdout: %sstderr: %s", tc.name, tc.args, got, tc.want, &stdout, &stderr)
		}
	}
}

// TestFlagSurface pins the command's flags. A new row here has to name
// the two callers that need different values (or say why it is a
// deployment setting); otherwise the value is a constant.
func TestFlagSurface(t *testing.T) {
	want := []string{"compact", "repair"}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Fatalf("crfsck -h: exit %d\n%s", code, &stderr)
	}
	var got []string
	for _, m := range regexp.MustCompile(`(?m)^  -(\S+)`).FindAllStringSubmatch(stderr.String(), -1) {
		got = append(got, m[1])
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("crfsck -h lists flags\n%v, want\n%v", got, want)
	}
}
