package secmetric

// The architecture test holds the call-site rules the per-file analyses
// rest on, over every non-test Go file of the module outside servebench/
// (a module of its own):
//
//   - minic.Parse and ir.Lower are used only inside internal/ir, so every
//     per-file analysis reads ir.Parse's result;
//   - lang.FromPath is used only where a file enters the system
//     (metrics.NewTree, metrics.LoadTree and server.admitPath), so every
//     analysis runs at the language its file carries;
//   - core.enrichFile and findings.AnalyzeFile take the language and the
//     bytes (with the bytes' parse, and a trace span), never a metrics.File
//     or a path, so the feature cache's key (version, language, bytes) is
//     their whole input.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// modulePath is the module's import path prefix.
const modulePath = "repro"

// sourceFile is one parsed non-test Go file of the module.
type sourceFile struct {
	pkg  string // import path of its package
	file *ast.File
}

// moduleSources parses every non-test Go file under root, skipping
// servebench/, testdata and hidden directories.
func moduleSources(t *testing.T, root string) []sourceFile {
	t.Helper()
	fset := token.NewFileSet()
	var out []sourceFile
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != root && (name == "servebench" || name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		pkg := modulePath
		if rel != "." {
			pkg = path.Join(modulePath, filepath.ToSlash(rel))
		}
		out = append(out, sourceFile{pkg: pkg, file: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatalf("no Go files under %s", root)
	}
	return out
}

// funcName names a package-level function or method declaration the way
// the rules do: "<import path>.<name>", or "<import path>.<receiver>.<name>"
// for a method.
func funcName(pkg string, fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return pkg + "." + fd.Name.Name
	}
	recv := fd.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		recv = star.X
	}
	return pkg + "." + types.ExprString(recv) + "." + fd.Name.Name
}

// useSites returns the declaration each use of the function name in
// package pkg sits in, one entry per use, sorted: qualified uses through
// the file's import name for pkg (calls and function values alike), and
// unqualified calls inside pkg itself. A use outside every function is
// reported as "<import path>.<package scope>".
func useSites(files []sourceFile, pkg, name string) []string {
	var sites []string
	for _, sf := range files {
		imports := map[string]bool{} // local names of pkg in this file
		for _, spec := range sf.file.Imports {
			p, err := strconv.Unquote(spec.Path.Value)
			if err != nil || p != pkg {
				continue
			}
			if spec.Name != nil {
				imports[spec.Name.Name] = true
			} else {
				imports[path.Base(p)] = true
			}
		}
		for _, decl := range sf.file.Decls {
			site := sf.pkg + ".<package scope>"
			if fd, ok := decl.(*ast.FuncDecl); ok {
				site = funcName(sf.pkg, fd)
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.SelectorExpr:
					if id, ok := x.X.(*ast.Ident); ok && imports[id.Name] && x.Sel.Name == name {
						sites = append(sites, site)
					}
				case *ast.CallExpr:
					if id, ok := x.Fun.(*ast.Ident); ok && sf.pkg == pkg && id.Name == name {
						sites = append(sites, site)
					}
				}
				return true
			})
		}
	}
	sort.Strings(sites)
	return sites
}

// paramTypes lists the declared type of every parameter of the function
// name in package pkg, one entry per parameter, or reports it missing.
func paramTypes(files []sourceFile, pkg, name string) ([]string, bool) {
	for _, sf := range files {
		if sf.pkg != pkg {
			continue
		}
		for _, decl := range sf.file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || fd.Name.Name != name {
				continue
			}
			var out []string
			for _, field := range fd.Type.Params.List {
				n := len(field.Names)
				if n == 0 {
					n = 1
				}
				for i := 0; i < n; i++ {
					out = append(out, types.ExprString(field.Type))
				}
			}
			return out, true
		}
	}
	return nil, false
}

func TestArchitecture(t *testing.T) {
	files := moduleSources(t, ".")

	// One parse: only internal/ir parses MiniC and lowers it.
	for _, fn := range []struct{ pkg, name string }{
		{modulePath + "/internal/minic", "Parse"},
		{modulePath + "/internal/ir", "Lower"},
	} {
		sites := useSites(files, fn.pkg, fn.name)
		if len(sites) == 0 {
			t.Errorf("%s.%s is used nowhere; the rule names a function that no longer exists", path.Base(fn.pkg), fn.name)
		}
		for _, s := range sites {
			if !strings.HasPrefix(s, modulePath+"/internal/ir.") {
				t.Errorf("%s.%s used in %s, outside internal/ir: call ir.Parse", path.Base(fn.pkg), fn.name, s)
			}
		}
	}

	// One language rule: a file's language comes from its path only where
	// the file enters.
	entries := []string{
		modulePath + "/internal/metrics.LoadTree",
		modulePath + "/internal/metrics.NewTree",
		modulePath + "/internal/server.admitPath",
	}
	if sites := useSites(files, modulePath+"/internal/lang", "FromPath"); !reflect.DeepEqual(sites, entries) {
		t.Errorf("lang.FromPath used in %v; want exactly once in each of %v", sites, entries)
	}

	// The per-file analyses take their cache key's inputs and nothing else.
	for _, fn := range []struct {
		pkg, name string
		want      []string
	}{
		{modulePath + "/internal/core", "enrichFile", []string{"lang.Language", "string", "*trace.Span"}},
		{modulePath + "/internal/findings", "AnalyzeFile", []string{"lang.Language", "string", "*minic.Program", "*ir.Program"}},
	} {
		got, ok := paramTypes(files, fn.pkg, fn.name)
		if !ok {
			t.Errorf("%s.%s not found", fn.pkg, fn.name)
		} else if !reflect.DeepEqual(got, fn.want) {
			t.Errorf("%s.%s takes %v, want %v: the language and the bytes of the cache key, with their parse or a span, and no path",
				fn.pkg, fn.name, got, fn.want)
		}
	}
}
