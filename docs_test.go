package pdm

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestDocReferences keeps DESIGN.md's cross-references live. Every
// section citation — `§n` inside DESIGN.md, `DESIGN §n` or
// `DESIGN.md §n` in README.md, EXPERIMENTS.md, the Makefile and Go
// source — must name a `## n.` heading, and every backticked Test,
// Benchmark, Fuzz or Example name in DESIGN.md must be declared by some
// _test.go file (a name written with a trailing `*` is a prefix); a row
// cited as `TestX/row` must also be the string literal "row" in TestX's
// file. Every Example<Name> that README.md names must be declared in the
// root package, where `go test -run 'Example<Name>$' -v .` finds it. Every
// backticked `internal/…` or `cmd/…` path in README.md,
// DESIGN.md, EXPERIMENTS.md and the verify skill must exist in the tree
// (a trailing `/...` is a package pattern). ROADMAP.md and CHANGES.md
// are exempt: one is a plan, the other a history.
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
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz|Example)\w*)\(`)
	declared := map[string]string{} // test name → its file's source
	rootExamples := map[string]bool{}
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
					declared[m[1]] = src
					if filepath.Dir(path) == "." && strings.HasPrefix(m[1], "Example") {
						rootExamples[m[1]] = true
					}
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

	for _, m := range regexp.MustCompile("`((?:Test|Benchmark|Fuzz|Example)[A-Za-z0-9_]*)(\\*?)(?:/([^`]+))?`").FindAllStringSubmatch(design, -1) {
		name, prefix, row := m[1], m[2] == "*", m[3]
		_, found := declared[name]
		for d := range declared {
			found = found || prefix && strings.HasPrefix(d, name)
		}
		if !found {
			t.Errorf("DESIGN.md names `%s%s`, which no _test.go file declares", name, m[2])
		}
		if row != "" && strings.HasPrefix(name, "Test") && !strings.Contains(declared[name], strconv.Quote(row)) {
			t.Errorf("DESIGN.md names `%s/%s`, but %s's file has no row %q", name, row, name, row)
		}
	}

	for _, name := range regexp.MustCompile(`\bExample[A-Z_]\w*`).FindAllString(readDoc(t, "README.md"), -1) {
		if !rootExamples[name] {
			t.Errorf("README.md names %s, which the root package does not declare", name)
		}
	}

	repoPath := regexp.MustCompile("`((?:internal|cmd)/[^`\\s]*)`")
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		for _, m := range repoPath.FindAllStringSubmatch(readDoc(t, doc), -1) {
			if _, err := os.Stat(strings.TrimSuffix(m[1], "...")); err != nil {
				t.Errorf("%s names `%s`, which is not in the tree", doc, m[1])
			}
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
