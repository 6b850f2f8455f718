package crfs_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"regexp/syntax"
	"slices"
	"strings"
	"testing"
)

// testFuncRE finds the Test, Benchmark and Fuzz functions of a test file.
var testFuncRE = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)

// citedRE finds the names of such functions in prose; a trailing * makes
// one a prefix.
var citedRE = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*\*?`)

// testFuncs returns the Test, Benchmark and Fuzz functions of the module,
// keyed by package directory ("./internal/core", "." for the root).
func testFuncs(t *testing.T) map[string][]string {
	t.Helper()
	funcs := map[string][]string{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		dir := "./" + filepath.ToSlash(filepath.Dir(path))
		if dir == "./." {
			dir = "."
		}
		for _, m := range testFuncRE.FindAllSubmatch(src, -1) {
			funcs[dir] = append(funcs[dir], string(m[1]))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return funcs
}

// shellWords splits a command line into words, honouring single quotes.
func shellWords(line string) []string {
	var words []string
	var w strings.Builder
	in, quoted := false, false
	for _, r := range line {
		switch {
		case r == '\'':
			quoted, in = !quoted, true
		case (r == ' ' || r == '\t') && !quoted:
			if in {
				words = append(words, w.String())
				w.Reset()
			}
			in = false
		default:
			w.WriteRune(r)
			in = true
		}
	}
	if in {
		words = append(words, w.String())
	}
	return words
}

// topLevel is the part of a -run or -bench pattern that matches
// top-level function names: go test splits a pattern at each slash
// outside brackets and parentheses, and the rest match subtests.
func topLevel(pattern string) string {
	depth := 0
	for i, r := range pattern {
		switch r {
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case '/':
			if depth == 0 {
				return pattern[:i]
			}
		}
	}
	return pattern
}

// alternatives returns pattern once per branch of each alternation in it,
// with that alternation cut down to the branch and everything else kept:
// a rename that leaves one branch matching nothing shows as one pattern
// that matches nothing.
func alternatives(t *testing.T, pattern string) []string {
	re, err := syntax.Parse(pattern, syntax.Perl)
	if err != nil {
		t.Fatalf("pattern %q: %v", pattern, err)
	}
	var out []string
	var walk func(n *syntax.Regexp)
	walk = func(n *syntax.Regexp) {
		if n.Op == syntax.OpAlternate {
			subs := n.Sub
			for i := range subs {
				n.Sub = subs[i : i+1]
				out = append(out, re.String())
			}
			n.Sub = subs
		}
		for _, s := range n.Sub {
			walk(s)
		}
	}
	walk(re)
	if len(out) == 0 {
		out = []string{re.String()}
	}
	return out
}

// TestCINamesExist: every branch of every -run, -bench and -fuzz pattern
// of a go test line in ci.yml matches a function of the kind the flag
// selects in the package the line names, and every Test, Benchmark or
// Fuzz name ci.yml or DESIGN.md cites is a function of the module. A test
// renamed or deleted would otherwise drop out of its step, -race
// -count=20 and all, without a word.
func TestCINamesExist(t *testing.T) {
	funcs := testFuncs(t)
	var all []string
	for _, names := range funcs {
		all = append(all, names...)
	}
	kinds := map[string][]string{"-run": {"Test", "Fuzz"}, "-bench": {"Benchmark"}, "-fuzz": {"Fuzz"}}
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for i, line := range strings.Split(string(ci), "\n") {
		words := shellWords(strings.TrimPrefix(strings.TrimSpace(line), "run: "))
		if len(words) < 2 || words[0] != "go" || words[1] != "test" {
			continue
		}
		var pkgs []string
		for _, w := range words {
			if strings.HasPrefix(w, "./") && w != "./..." || w == "." {
				pkgs = append(pkgs, w)
			}
		}
		for j, w := range words[:len(words)-1] {
			kind, ok := kinds[w]
			if !ok || words[j+1] == "^$" {
				continue
			}
			if len(pkgs) == 0 {
				t.Errorf("ci.yml:%d: %s %q names no package", i+1, w, words[j+1])
				continue
			}
			for _, alt := range alternatives(t, topLevel(words[j+1])) {
				re := regexp.MustCompile(alt)
				found := false
				for _, pkg := range pkgs {
					for _, name := range funcs[pkg] {
						for _, k := range kind {
							found = found || strings.HasPrefix(name, k) && re.MatchString(name)
						}
					}
				}
				if !found {
					t.Errorf("ci.yml:%d: %s %q: branch %q matches no function in %v", i+1, w, words[j+1], alt, pkgs)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no -run, -bench or -fuzz pattern found in ci.yml")
	}
	for _, doc := range []string{".github/workflows/ci.yml", "DESIGN.md"} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range citedRE.FindAllString(string(src), -1) {
			prefix, isPrefix := strings.CutSuffix(name, "*")
			if !slices.ContainsFunc(all, func(f string) bool { return f == name || isPrefix && strings.HasPrefix(f, prefix) }) {
				t.Errorf("%s cites %s, which is not a function of the module", doc, name)
			}
		}
	}
}
