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
// 2 for proven damage, 0 for a clean directory, 1 for a usage error or a
// container crfsck cannot read — a v1 container, whose payloads carry no
// checksum, is refused and, under -repair or -compact, left byte for byte
// as it was.
func TestExitStatus(t *testing.T) {
	const fixtures = "../../internal/codec/testdata"
	healthy := copyFixtures(t, fixtures+"/golden", func(name string) bool {
		return strings.HasSuffix(name, ".crfc") && !strings.HasSuffix(name, "-torn.crfc")
	})
	all := func(string) bool { return true }
	v1 := []string{copyFixtures(t, fixtures+"/v1", all), copyFixtures(t, fixtures+"/v1", all), copyFixtures(t, fixtures+"/v1", all)}
	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"golden set holds a torn container", []string{fixtures + "/golden"}, 2},
		{"bit-rotted containers fail their checksum", []string{fixtures + "/corrupt"}, 2},
		{"healthy copy scrubs clean and compacts", []string{"-compact", healthy}, 0},
		{"v1 container refused", []string{v1[0]}, 1},
		{"v1 container refused by -repair", []string{"-repair", v1[1]}, 1},
		{"v1 container refused by -compact", []string{"-compact", v1[2]}, 1},
		{"no directory given", nil, 1},
		{"directory does not exist", []string{filepath.Join(healthy, "missing")}, 1},
	} {
		var stdout, stderr bytes.Buffer
		if got := run(tc.args, &stdout, &stderr); got != tc.want {
			t.Errorf("%s: crfsck %v exited %d, want %d\nstdout: %sstderr: %s", tc.name, tc.args, got, tc.want, &stdout, &stderr)
		}
	}
	for _, dir := range v1 {
		entries, err := os.ReadDir(dir)
		if err != nil || len(entries) != 5 {
			t.Fatalf("%s: %d entries, want the 5 fixtures (%v)", dir, len(entries), err)
		}
		for _, e := range entries {
			got, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join(fixtures, "v1", e.Name()))
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s: crfsck changed a v1 container (%v)", e.Name(), err)
			}
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
