package lockorder

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCoreLockOrder checks internal/core itself: any finding is a lock
// order inversion or IO under mu/decMu in production code.
func TestCoreLockOrder(t *testing.T) {
	findings, funcs, err := Check(filepath.Join("..", "core"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
	t.Logf("lockorder: internal/core, %d functions, %d findings", funcs, len(findings))
}

// TestLockOrder checks the fixture against its `// want` comments.
func TestLockOrder(t *testing.T) {
	dir := filepath.Join("testdata", "a")
	findings, _, err := Check(dir)
	if err != nil {
		t.Fatal(err)
	}
	checkWants(t, dir, findings)
}

// checkWants fails t unless every finding matches the backquoted regexp
// of a `// want` comment on its line and every want is matched once.
func checkWants(t *testing.T, dir string, findings []Finding) {
	wantRE := regexp.MustCompile("// want `([^`]*)`")
	wants := make(map[string]*regexp.Regexp)
	paths, _ := filepath.Glob(filepath.Join(dir, "*.go"))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			if m := wantRE.FindStringSubmatch(line); m != nil {
				wants[fmt.Sprintf("%s:%d", p, i+1)] = regexp.MustCompile(m[1])
			}
		}
	}
	for _, f := range findings {
		at := fmt.Sprintf("%s:%d", f.Pos.Filename, f.Pos.Line)
		if re := wants[at]; re == nil || !re.MatchString(f.Message) {
			t.Errorf("unexpected finding: %s", f)
		}
		delete(wants, at)
	}
	for at, re := range wants {
		t.Errorf("%s: no finding matched want %s", at, re)
	}
}
