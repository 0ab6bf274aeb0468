package ropus

// The package table checks itself: every internal package is reachable
// from a command (or excused below, with the reason), and
// docs/PACKAGES.md lists exactly the packages that exist.

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// commandRoots are the production entry points reachability starts from.
var commandRoots = []string{"cmd/ropus", "cmd/experiments", "cmd/loadgen"}

// unreachableAllowed excuses internal packages no command imports.
var unreachableAllowed = map[string]string{
	"stress": "the paper's §III stress-test substitute (DESIGN.md substitution table), shown by examples/stresstest",
	"pool":   "ROADMAP item 4 decides: the compliance oracle's time-domain outage replay, or deleted (item 8(g))",
}

// importGraph maps each package directory holding non-test Go files to
// the in-module package directories it imports.
func importGraph(t *testing.T) map[string][]string {
	t.Helper()
	graph := map[string][]string{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		deps := graph[dir]
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			if rest, ok := strings.CutPrefix(p, "ropus/"); ok {
				deps = append(deps, rest)
			}
		}
		graph[dir] = deps // recorded even when it imports nothing in-module
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return graph
}

// internalPackages lists the package names under internal/.
func internalPackages(graph map[string][]string) []string {
	var pkgs []string
	for dir := range graph {
		if rest, ok := strings.CutPrefix(dir, "internal/"); ok {
			pkgs = append(pkgs, rest)
		}
	}
	sort.Strings(pkgs)
	return pkgs
}

// packageRow matches a docs/PACKAGES.md table row whose first column is
// a bare package name; feature rows (`placement.ConsolidateHierarchical`)
// carry a dot and are skipped.
var packageRow = regexp.MustCompile("(?m)^\\| `([a-z0-9_]+)` \\|")

func TestPackageTable(t *testing.T) {
	graph := importGraph(t)
	reached := map[string]bool{}
	var visit func(dir string)
	visit = func(dir string) {
		if reached[dir] {
			return
		}
		reached[dir] = true
		for _, dep := range graph[dir] {
			visit(dep)
		}
	}
	for _, root := range commandRoots {
		visit(root)
	}

	doc, err := os.ReadFile("docs/PACKAGES.md")
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, m := range packageRow.FindAllStringSubmatch(string(doc), -1) {
		listed[m[1]] = true
	}

	for _, pkg := range internalPackages(graph) {
		if _, excused := unreachableAllowed[pkg]; !reached["internal/"+pkg] && !excused {
			t.Errorf("internal/%s is imported by no command (%v): give it a caller, delete it, or excuse it in unreachableAllowed with the reason",
				pkg, commandRoots)
		}
		if !listed[pkg] {
			t.Errorf("internal/%s has no row in docs/PACKAGES.md", pkg)
		}
		delete(listed, pkg)
	}
	for pkg := range listed {
		t.Errorf("docs/PACKAGES.md lists %s, but internal/%s does not exist", pkg, pkg)
	}
}
