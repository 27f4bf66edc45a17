package paradigm

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// docFiles are the documents whose references TestDocReferences checks.
var docFiles = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"}

// deletedNames are identifiers and paths of deleted code. A document
// that still names one describes a system that no longer exists; the
// history lives in CHANGES.md.
var deletedNames = []string{
	"RunPipeline", "FullReport", "RunKind", "cluster.Pool",
	"internal/loadgen", "cmd/mdgbench", "internal/alloccache",
	"OpenCheckpoint", "WithVirtualDeadline", "VirtualDeadline",
	"smoke-examples", "examples/",
}

// TestDocReferences keeps the documents honest about the code: every
// DESIGN.md section a Go comment or another document cites is a heading, every test a
// document names exists, every repo path it puts in backticks exists,
// and no deleted identifier reappears. It also holds the Example files
// to the public API, the only one a user outside this module has.
func TestDocReferences(t *testing.T) {
	goFiles := map[string]string{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			goFiles[path] = string(b)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	docs := map[string]string{}
	for _, name := range docFiles {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		docs[name] = string(b)
	}

	t.Run("sections", func(t *testing.T) {
		sections := designSections(docs["DESIGN.md"])
		citing := map[string]string{"README.md": docs["README.md"], "EXPERIMENTS.md": docs["EXPERIMENTS.md"]}
		for path, src := range goFiles {
			citing[path] = src
		}
		for path, src := range citing {
			for _, ref := range designCitations(src) {
				subs, ok := sections[ref.section]
				if !ok {
					t.Errorf("%s cites DESIGN.md §%d, which is not a heading", path, ref.section)
					continue
				}
				if ref.title != "" && !subs[ref.title] {
					t.Errorf("%s cites DESIGN.md §%d %q, which is not a heading in that section", path, ref.section, ref.title)
				}
			}
		}
	})

	t.Run("tests", func(t *testing.T) {
		defined := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w+)\(`)
		var names []string
		for path, src := range goFiles {
			if strings.HasSuffix(path, "_test.go") {
				for _, m := range defined.FindAllStringSubmatch(src, -1) {
					names = append(names, m[1])
				}
			}
		}
		cited := regexp.MustCompile(`\b((?:Test|Benchmark|Fuzz)[A-Z0-9]\w*)(\*|…|\.\.\.)?`)
		for _, doc := range docFiles {
			for _, m := range cited.FindAllStringSubmatch(docs[doc], -1) {
				if !testExists(names, m[1], m[2] != "") {
					t.Errorf("%s cites %s%s, which no _test.go file defines", doc, m[1], m[2])
				}
			}
		}
	})

	t.Run("paths", func(t *testing.T) {
		backticked := regexp.MustCompile("`([^`\\s]+)`")
		for _, doc := range docFiles {
			for _, m := range backticked.FindAllStringSubmatch(docs[doc], -1) {
				path, ok := repoPath(m[1])
				if ok && !pathExists(path) {
					t.Errorf("%s cites `%s`, which does not exist", doc, m[1])
				}
			}
		}
	})

	t.Run("deleted", func(t *testing.T) {
		for _, name := range deletedNames {
			// Word boundaries only where the name has a word character, so
			// WithVirtualDeadline is not VirtualDeadline and examples/x
			// still names examples/.
			re := regexp.QuoteMeta(name)
			if isWord(name[0]) {
				re = `\b` + re
			}
			if isWord(name[len(name)-1]) {
				re += `\b`
			}
			named := regexp.MustCompile(re)
			for _, doc := range docFiles {
				if named.MatchString(docs[doc]) {
					t.Errorf("%s names %s, which is deleted", doc, name)
				}
			}
		}
	})

	t.Run("example imports", func(t *testing.T) {
		files, err := filepath.Glob("example*_test.go")
		if err != nil {
			t.Fatal(err)
		}
		if len(files) == 0 {
			t.Fatal("no example*_test.go files")
		}
		for _, path := range files {
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			if f.Name.Name != "paradigm_test" {
				t.Errorf("%s is package %s, want paradigm_test", path, f.Name.Name)
			}
			for _, imp := range f.Imports {
				p, _ := strconv.Unquote(imp.Path.Value)
				std := !strings.Contains(strings.SplitN(p, "/", 2)[0], ".") && !strings.HasPrefix(p, "paradigm/")
				if p != "paradigm" && !std {
					t.Errorf("%s imports %s: examples use only paradigm and the standard library", path, p)
				}
			}
		}
	})
}

// designCitation is one `DESIGN.md §N` in Go source or a document,
// with the quoted subsection title that follows it, if any.
type designCitation struct {
	section int
	title   string
}

var (
	// citeRe matches "DESIGN.md §12", "DESIGN §12", a range "§14–15" and
	// a following subsection title in quotes.
	citeRe = regexp.MustCompile(`DESIGN(?:\.md)?,? §(\d+)(?:[–-]§?(\d+))?(?:,? "([^"]+)")?`)
	// lineBreak joins a comment or paragraph wrapped over several lines.
	lineBreak = regexp.MustCompile(`\n\s*(//)?\s*`)
)

func designCitations(src string) []designCitation {
	var out []designCitation
	for _, m := range citeRe.FindAllStringSubmatch(lineBreak.ReplaceAllString(src, " "), -1) {
		lo, _ := strconv.Atoi(m[1])
		hi := lo
		if m[2] != "" {
			hi, _ = strconv.Atoi(m[2])
		}
		for n := lo; n <= hi; n++ {
			out = append(out, designCitation{section: n})
		}
		out[len(out)-1].title = m[3]
	}
	return out
}

// designSections maps each "## N. Title" heading of DESIGN.md to the
// titles of the "###" subsections under it.
func designSections(doc string) map[int]map[string]bool {
	sections := map[int]map[string]bool{}
	section := -1
	numbered := regexp.MustCompile(`^## (\d+)\. `)
	for _, line := range strings.Split(doc, "\n") {
		if m := numbered.FindStringSubmatch(line); m != nil {
			section, _ = strconv.Atoi(m[1])
			sections[section] = map[string]bool{}
		} else if strings.HasPrefix(line, "## ") {
			section = -1
		} else if title, ok := strings.CutPrefix(line, "### "); ok && section >= 0 {
			sections[section][title] = true
		}
	}
	return sections
}

func isWord(c byte) bool {
	return c == '_' || '0' <= c && c <= '9' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z'
}

func testExists(names []string, name string, prefix bool) bool {
	for _, n := range names {
		if n == name || prefix && strings.HasPrefix(n, name) {
			return true
		}
	}
	return false
}

// pathDirs are the top-level directories a backticked repo path starts
// with; pathExts the extensions that mark one anywhere.
var (
	pathDirs = []string{"internal/", "cmd/", "bench/", "testdata/"}
	pathExts = []string{".go", ".s", ".md", ".json", ".golden"}
)

// repoPath reports whether a backticked token names a path in this
// repository, stripping a ":line" suffix. A token with no slash is a
// file name and only counts with a path extension.
func repoPath(tok string) (string, bool) {
	if strings.Contains(tok, "://") || strings.HasPrefix(tok, "/") || strings.HasPrefix(tok, "-") {
		return "", false
	}
	if i := strings.IndexByte(tok, ':'); i >= 0 {
		tok = tok[:i]
	}
	hasExt := false
	for _, ext := range pathExts {
		hasExt = hasExt || strings.HasSuffix(tok, ext)
	}
	if !strings.Contains(tok, "/") {
		return tok, hasExt
	}
	for _, dir := range pathDirs {
		if strings.HasPrefix(tok, dir) {
			return tok, true
		}
	}
	return tok, hasExt
}

// pathExists resolves a path from the repo root, or from internal/ the
// way the documents abbreviate package paths, by glob when it has one; a
// bare file name resolves if any file in the repo has that name.
func pathExists(path string) bool {
	for _, p := range []string{path, filepath.Join("internal", path)} {
		if m, _ := filepath.Glob(p); len(m) > 0 {
			return true
		}
	}
	if strings.Contains(path, "/") {
		return false
	}
	found := false
	filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if ok, _ := filepath.Match(path, d.Name()); ok {
				found = true
				return filepath.SkipAll
			}
		}
		return nil
	})
	return found
}
