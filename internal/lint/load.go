package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	suppress   map[suppressKey]bool
	directives []directive
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	Standard   bool
	Incomplete bool
	Error      *struct{ Err string }
}

// goList runs `go list` in dir and returns its stdout.
func goList(dir string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return out, nil
}

// ExportMap maps import paths to compiler export-data files, obtained
// from `go list -deps -export`. It is what lets the loader type-check
// against precompiled dependencies without any network or module
// downloads: the go tool builds (or reuses from the build cache) the
// export data for every dependency, including the standard library.
func ExportMap(dir string, patterns ...string) (map[string]string, error) {
	args := append([]string{"-deps", "-export", "-e", "-f",
		"{{if .Export}}{{.ImportPath}}={{.Export}}{{end}}"}, patterns...)
	out, err := goList(dir, args...)
	if err != nil {
		return nil, err
	}
	m := make(map[string]string)
	for _, line := range strings.Split(string(out), "\n") {
		if path, file, ok := strings.Cut(strings.TrimSpace(line), "="); ok {
			m[path] = file
		}
	}
	return m, nil
}

// exportImporter returns a types.Importer resolving imports through an
// export map. All packages loaded against one importer share fset, so
// their type objects are position-compatible.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
}

// Load lists patterns in module directory dir (module root, typically),
// parses and type-checks each non-standard-library package from source,
// and returns them ready for analysis. Test files are not loaded: the
// analyzers enforce library-code invariants, and `*_test.go` is exempt
// from all of them by construction.
func Load(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{"-e", "-json=ImportPath,Dir,Name,GoFiles,Standard,Incomplete,Error"}, patterns...)
	out, err := goList(dir, args...)
	if err != nil {
		return nil, err
	}
	var listed []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %w", err)
		}
		listed = append(listed, p)
	}
	exports, err := ExportMap(dir, patterns...)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := exportImporter(fset, exports)
	var pkgs []*Package
	for _, lp := range listed {
		if lp.Standard || len(lp.GoFiles) == 0 {
			continue
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("%s: %s", lp.ImportPath, lp.Error.Err)
		}
		var files []string
		for _, f := range lp.GoFiles {
			files = append(files, filepath.Join(lp.Dir, f))
		}
		pkg, err := typecheck(fset, imp, lp.ImportPath, lp.Dir, files)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// typecheck parses the given files and type-checks them as one package
// with the given import path.
func typecheck(fset *token.FileSet, imp types.Importer, path, dir string, filenames []string) (*Package, error) {
	pkg := &Package{
		Path:     path,
		Dir:      dir,
		Fset:     fset,
		suppress: make(map[suppressKey]bool),
	}
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		pkg.Files = append(pkg.Files, f)
		pkg.parseDirectives(fset, f)
	}
	pkg.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, pkg.Files, pkg.Info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	pkg.Types = tpkg
	return pkg, nil
}
