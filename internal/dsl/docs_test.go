package dsl

import (
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// readAuthoringDoc loads docs/strategy-authoring.md, the DSL reference
// these tests keep honest.
func readAuthoringDoc(t *testing.T) string {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "docs", "strategy-authoring.md"))
	if err != nil {
		t.Fatalf("docs/strategy-authoring.md must exist: %v", err)
	}
	return string(src)
}

// TestDocsCheckKindsMatchCompiler fails when docs/strategy-authoring.md
// and the compiler disagree about the set of check kinds: every `### `x“
// heading must be a kind the DSL compiles, and every compiled kind must
// be documented. This is the CI docs job's consistency check — docs
// cannot silently rot when a kind is added or renamed.
func TestDocsCheckKindsMatchCompiler(t *testing.T) {
	doc := readAuthoringDoc(t)
	// Check kinds are documented under headings of the form
	// "### `kind` — summary"; other backticked headings don't match.
	headings := regexp.MustCompile("(?m)^### `([a-z]+)` — ").FindAllStringSubmatch(doc, -1)
	documented := make([]string, 0, len(headings))
	for _, h := range headings {
		documented = append(documented, h[1])
	}
	known := KnownCheckKinds()

	sortedDoc := append([]string(nil), documented...)
	sortedKnown := append([]string(nil), known...)
	sort.Strings(sortedDoc)
	sort.Strings(sortedKnown)
	if strings.Join(sortedDoc, ",") != strings.Join(sortedKnown, ",") {
		t.Fatalf("documented check kinds %v != compiler's %v", documented, known)
	}
}

// yamlBlocks extracts the fenced YAML blocks of a markdown document.
func yamlBlocks(doc string) []string {
	var blocks []string
	for _, m := range regexp.MustCompile("(?s)```yaml\n(.*?)```").FindAllStringSubmatch(doc, -1) {
		blocks = append(blocks, m[1])
	}
	return blocks
}

// TestDocsExamplesCompile compiles every complete strategy in the
// authoring reference (the YAML blocks that begin with `name:`), so the
// documented examples are guaranteed runnable, and checks that each
// check kind is exercised by at least one of them.
func TestDocsExamplesCompile(t *testing.T) {
	doc := readAuthoringDoc(t)
	exercised := map[string]bool{}
	complete := 0
	for i, block := range yamlBlocks(doc) {
		if !strings.HasPrefix(strings.TrimSpace(block), "name:") {
			continue // fragment, not a full strategy
		}
		complete++
		// CompileAll so template examples (vars/matrix) are covered too:
		// every expansion must be a valid standalone run.
		runs, err := CompileAll(block)
		if err != nil {
			t.Errorf("docs yaml block #%d does not compile: %v", i, err)
			continue
		}
		for _, run := range runs {
			s := run.Strategy
			for si := range s.Automaton.States {
				for ci := range s.Automaton.States[si].Checks {
					k := s.Automaton.States[si].Checks[ci].Kind.String()
					// The model kind "basic" is the DSL element "metric".
					if k == "basic" {
						k = "metric"
					}
					exercised[k] = true
				}
			}
		}
	}
	if complete < len(KnownCheckKinds()) {
		t.Errorf("only %d complete strategies in docs, want ≥ one per check kind (%d)",
			complete, len(KnownCheckKinds()))
	}
	for _, kind := range KnownCheckKinds() {
		if !exercised[kind] {
			t.Errorf("no runnable docs example exercises check kind %q", kind)
		}
	}
}

// TestDocsLinkTargetsExist keeps the docs tree's relative references
// valid: the files docs/ and README link to must exist.
func TestDocsLinkTargetsExist(t *testing.T) {
	for _, path := range []string{
		filepath.Join("..", "..", "docs", "architecture.md"),
		filepath.Join("..", "..", "docs", "strategy-authoring.md"),
		filepath.Join("..", "..", "docs", "operations.md"),
		filepath.Join("..", "..", "strategies", "slo-guarded-canary.yaml"),
		filepath.Join("..", "..", "strategies", "fleet-canary.yaml"),
		filepath.Join("..", "..", "strategies", "matrix-canary.yaml"),
		filepath.Join("..", "..", "strategies", "multi-region-canary.yaml"),
	} {
		if _, err := os.Stat(path); err != nil {
			t.Errorf("referenced file missing: %v", err)
		}
	}
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, link := range []string{"docs/architecture.md", "docs/strategy-authoring.md", "docs/operations.md",
		// The HA runbook is load-bearing for operators rolling a fleet;
		// README must deep-link its section, not just the file. The same
		// goes for the event-pipeline internals and the benchmarking
		// runbook for the bench/ ledger.
		"docs/operations.md#running-multiple-engine-replicas",
		"docs/architecture.md#the-event-pipeline",
		"docs/operations.md#benchmarking-and-the-perf-trajectory",
		"docs/architecture.md#hierarchical-rollouts",
		"docs/architecture.md#internal-hops-keep-their-connections"} {
		if !strings.Contains(string(readme), link) {
			t.Errorf("README does not link %s", link)
		}
	}
	// Deep-linked anchors must resolve to a real heading in their target
	// file (GitHub's anchor: lowercase, spaces to dashes).
	for file, headings := range map[string][]string{
		"architecture.md": {"## The event pipeline", "## Hierarchical rollouts",
			"## Internal hops keep their connections"},
		"operations.md": {
			"## Running multiple engine replicas",
			"## Benchmarking and the perf trajectory",
		},
	} {
		doc, err := os.ReadFile(filepath.Join("..", "..", "docs", file))
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range headings {
			if !strings.Contains(string(doc), h+"\n") {
				t.Errorf("docs/%s lost the %q heading that README deep-links", file, h)
			}
		}
	}
}

// TestDocsCIRunPatternsMatchTests keeps the CI workflow's focused steps
// honest: `go test -run X` passes silently when X matches no test, so a
// renamed or deleted test would drop out of its step unnoticed. Every
// |-separated alternative of every -run pattern in ci.yml must match a
// `func Test…` in that command's package arguments.
func TestDocsCIRunPatternsMatchTests(t *testing.T) {
	root := filepath.Join("..", "..")
	ci, err := os.ReadFile(filepath.Join(root, ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	runFlag := regexp.MustCompile(`\s-run\s+(?:'([^']*)'|(\S+))`)
	pkgArg := regexp.MustCompile(`(?:^|\s)(\./\S*)`)
	patterns := 0
	for _, line := range strings.Split(string(ci), "\n") {
		m := runFlag.FindStringSubmatch(line)
		if m == nil || strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		pattern := m[1] + m[2]
		var names []string
		for _, pkg := range pkgArg.FindAllStringSubmatch(line, -1) {
			names = append(names, testFuncs(t, filepath.Join(root, pkg[1]))...)
		}
		if len(names) == 0 {
			t.Errorf("ci.yml: no tests in the packages of %q", strings.TrimSpace(line))
			continue
		}
		patterns++
		for _, alt := range strings.Split(pattern, "|") {
			// -run splits on '/' into per-level patterns; the first one
			// selects top-level tests.
			re, err := regexp.Compile(strings.Split(alt, "/")[0])
			if err != nil {
				t.Errorf("ci.yml: bad -run alternative %q: %v", alt, err)
				continue
			}
			matched := false
			for _, name := range names {
				if re.MatchString(name) {
					matched = true
					break
				}
			}
			if !matched {
				t.Errorf("ci.yml: -run alternative %q matches no test in %q", alt, strings.TrimSpace(line))
			}
		}
	}
	if patterns == 0 {
		t.Fatal("found no -run patterns in ci.yml")
	}
}

// testFuncs lists the top-level test functions of the package in dir, or of
// every package under it for a Go `/...` pattern.
func testFuncs(t *testing.T, dir string) []string {
	t.Helper()
	testFunc := regexp.MustCompile(`(?m)^func (Test\w*)\(`)
	recursive := strings.HasSuffix(dir, "...")
	dir = strings.TrimSuffix(dir, "...")
	var names []string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != filepath.Clean(dir) && !recursive {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFunc.FindAllStringSubmatch(string(src), -1) {
			names = append(names, m[1])
		}
		return nil
	})
	if err != nil {
		t.Errorf("listing tests under %s: %v", dir, err)
	}
	return names
}
