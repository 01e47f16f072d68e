package pdm

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocReferences keeps DESIGN.md's cross-references live. Every
// section citation — `§n` inside DESIGN.md, `DESIGN §n` or
// `DESIGN.md §n` in README.md, EXPERIMENTS.md, the Makefile and Go
// source — must name a `## n.` heading, and every backticked Test,
// Benchmark or Fuzz name in DESIGN.md must be declared by some _test.go
// file (a name written with a trailing `*` is a prefix). ROADMAP.md and
// CHANGES.md are exempt: one is a plan, the other a history.
func TestDocReferences(t *testing.T) {
	design := readDoc(t, "DESIGN.md")
	headings := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^## (\d+[a-z]?)\. `).FindAllStringSubmatch(design, -1) {
		headings[m[1]] = true
	}
	cite := func(where, text string, re *regexp.Regexp) {
		for _, m := range re.FindAllStringSubmatch(text, -1) {
			if !headings[m[1]] {
				t.Errorf("%s cites DESIGN §%s, which is no section heading", where, m[1])
			}
		}
	}
	cite("DESIGN.md", design, regexp.MustCompile(`§(\d+[a-z]?)`))

	external := regexp.MustCompile(`DESIGN(?:\.md)? §(\d+[a-z]?)`)
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	declared := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		switch {
		case strings.HasSuffix(path, ".go"):
			src := readDoc(t, path)
			cite(path, src, external)
			if strings.HasSuffix(path, "_test.go") {
				for _, m := range decl.FindAllStringSubmatch(src, -1) {
					declared[m[1]] = true
				}
			}
		case path == "README.md" || path == "EXPERIMENTS.md" || path == "Makefile":
			cite(path, readDoc(t, path), external)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, m := range regexp.MustCompile("`((?:Test|Benchmark|Fuzz)[A-Za-z0-9_]*)(\\*?)").FindAllStringSubmatch(design, -1) {
		name, prefix := m[1], m[2] == "*"
		found := declared[name]
		for d := range declared {
			found = found || prefix && strings.HasPrefix(d, name)
		}
		if !found {
			t.Errorf("DESIGN.md names `%s%s`, which no _test.go file declares", name, m[2])
		}
	}
}

func readDoc(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
