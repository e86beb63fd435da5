package fullview_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// apiAllowList names the exported internal/ identifiers that may stay
// although no non-test file names them, each with its reason. Keys are
// "<dir>.<Name>" for functions, types, vars and consts and
// "<dir>.<Type>.<Method>" for methods.
var apiAllowList = map[string]string{
	"internal/analytic.CSANecessaryXi":               "paper bound: Proposition 1's ξ-parameterised necessary CSA (docs/THEORY.md, Theorem 1), checked by the package tests",
	"internal/analytic.CSASufficientXi":              "paper bound: Proposition 3's ξ-parameterised sufficient CSA (docs/THEORY.md), checked by the package tests",
	"internal/analytic.CriticalESR":                  "paper bound: Section VII-A's critical sensing radius R*(n) (docs/THEORY.md), checked by the package tests",
	"internal/analytic.ExpApproxError":               "paper bound: Lemma 2's exponential approximation (docs/THEORY.md), checked by the package tests",
	"internal/analytic.GridFailureUpperBound":        "paper bound: Proposition 2's union bound m^(1−q) (docs/THEORY.md), checked by the package tests",
	"internal/analytic.LogBounds":                    "paper bound: Lemma 1's logarithm bounds (docs/THEORY.md), checked by the package tests",
	"internal/analytic.PoissonQSum":                  "paper formula: the Poisson deployment's truncated series (docs/THEORY.md), checked against its closed form",
	"internal/analytic.PropositionFailureLowerBound": "paper bound: Propositions 1 and 3's failure lower bound e^(−ξ)−e^(−2ξ) (docs/THEORY.md), checked by the package tests",
	"internal/faultinject.Reset":                     "test hook: tests in other packages disarm every fault point with it",
	"internal/spatial.MutableIndex.ForceRebuild":     "test hook: tests in other packages fold an overlay on demand with it",
}

// TestExportedAPIReferenced fails when an exported top-level function,
// method, type, var or const declared in a non-test file under
// internal/ is named by no non-test Go file of the repository (bench/
// included) and is not on apiAllowList. References match by name, so
// the scan can only under-count what is unused. A method whose
// receiver type is aliased in the root package is public API and
// counts as referenced.
func TestExportedAPIReferenced(t *testing.T) {
	fset := token.NewFileSet()
	files := parseGoFiles(t, fset, true, func(path string) bool { return !strings.HasSuffix(path, "_test.go") })
	public := rootAliases(files)

	type decl struct {
		key, name  string
		file       string
		start, end token.Pos // the declaration's own span
	}
	var decls []decl
	refs := make(map[string][]token.Position) // name -> use sites
	for _, f := range files {
		dir := filepath.ToSlash(filepath.Dir(f.path))
		internal := strings.HasPrefix(dir, "internal/")
		recvs := make(map[*ast.Ident]bool)
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv != nil {
					ast.Inspect(d.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							recvs[id] = true
						}
						return true
					})
				}
				if !internal || !d.Name.IsExported() {
					continue
				}
				key := dir + "." + d.Name.Name
				if d.Recv != nil {
					typ := recvType(d.Recv.List[0].Type)
					if !ast.IsExported(typ) || public[dir+"."+typ] {
						continue
					}
					key = dir + "." + typ + "." + d.Name.Name
				}
				decls = append(decls, decl{key, d.Name.Name, f.path, d.Pos(), d.End()})
			case *ast.GenDecl:
				if !internal {
					continue
				}
				for _, s := range d.Specs {
					var names []*ast.Ident
					switch s := s.(type) {
					case *ast.TypeSpec:
						names = []*ast.Ident{s.Name}
					case *ast.ValueSpec:
						names = s.Names
					}
					for _, n := range names {
						if n.IsExported() {
							decls = append(decls, decl{dir + "." + n.Name, n.Name, f.path, s.Pos(), s.End()})
						}
					}
				}
			}
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !recvs[id] {
				refs[id.Name] = append(refs[id.Name], fset.Position(id.Pos()))
			}
			return true
		})
	}

	var unused []string
	for _, d := range decls {
		start, end := fset.Position(d.start), fset.Position(d.end)
		used := false
		for _, at := range refs[d.name] {
			if at.Filename != d.file || at.Offset < start.Offset || at.Offset >= end.Offset {
				used = true
				break
			}
		}
		if _, ok := apiAllowList[d.key]; !used && !ok {
			unused = append(unused, d.key)
		}
	}
	sort.Strings(unused)
	for _, k := range unused {
		t.Errorf("%s: exported, but no non-test file names it; delete or unexport it, or allow-list it with a reason", k)
	}
	for k, why := range apiAllowList {
		if strings.TrimSpace(why) == "" {
			t.Errorf("allow-list entry %s has no reason", k)
		}
	}
}

// TestFuzzTargetsInMakefile fails when a Fuzz target of the module is
// missing from the Makefile's fuzz target, or the target names one that
// does not exist: CI fuzzes through `make fuzz`, so a target missing
// there is never fuzzed.
func TestFuzzTargetsInMakefile(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	listed := make(map[string]bool)
	line := regexp.MustCompile(`-fuzz=(Fuzz\w+)\b.*\s\./(\S+?)/?$`)
	in := false
	for _, l := range strings.Split(string(mk), "\n") {
		switch {
		case strings.HasPrefix(l, "fuzz:"):
			in = true
		case in && strings.HasPrefix(l, "\t"):
			if m := line.FindStringSubmatch(l); m != nil {
				listed[m[2]+"."+m[1]] = true
			}
		case in:
			in = false
		}
	}

	found := make(map[string]bool)
	tests := parseGoFiles(t, token.NewFileSet(), false, func(path string) bool { return strings.HasSuffix(path, "_test.go") })
	for _, f := range tests {
		for _, d := range f.ast.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Fuzz") {
				found[filepath.ToSlash(filepath.Dir(f.path))+"."+fn.Name.Name] = true
			}
		}
	}
	for k := range found {
		if !listed[k] {
			t.Errorf("fuzz target %s is not run by the Makefile's fuzz target", k)
		}
	}
	for k := range listed {
		if !found[k] {
			t.Errorf("the Makefile's fuzz target names %s, which does not exist", k)
		}
	}
	if len(found) == 0 {
		t.Fatal("found no fuzz targets")
	}
}

type parsedFile struct {
	path string
	ast  *ast.File
}

// parseGoFiles parses the repository's Go files that keep accepts,
// skipping hidden directories and testdata; nested modules (bench/) are
// walked only when nested is set.
func parseGoFiles(t *testing.T, fset *token.FileSet, nested bool, keep func(path string) bool) []parsedFile {
	t.Helper()
	var files []parsedFile
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || path == "." {
			return err
		}
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && !nested {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || !keep(path) {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, parsedFile{path, f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// rootAliases returns "<dir>.<Type>" for every internal type the root
// package aliases (type Vec = geom.Vec), so its methods are public API.
func rootAliases(files []parsedFile) map[string]bool {
	public := make(map[string]bool)
	for _, f := range files {
		if filepath.Dir(f.path) != "." {
			continue
		}
		imports := make(map[string]string) // package name -> dir
		for _, im := range f.ast.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			dir, ok := strings.CutPrefix(p, "fullview/")
			if !ok {
				continue
			}
			name := filepath.Base(dir)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = dir
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || !ts.Assign.IsValid() {
				return true
			}
			if sel, ok := ts.Type.(*ast.SelectorExpr); ok {
				if pkg, ok := sel.X.(*ast.Ident); ok && imports[pkg.Name] != "" {
					public[imports[pkg.Name]+"."+sel.Sel.Name] = true
				}
			}
			return true
		})
	}
	return public
}

// recvType names a method receiver's base type: T for T, *T, T[P] and
// *T[P, Q].
func recvType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
