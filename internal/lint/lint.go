// Package lint is a minimal static-analysis framework in the shape of
// golang.org/x/tools/go/analysis, built on the standard library alone so
// the repo's analyzers need no module downloads. An Analyzer inspects one
// type-checked package at a time through a Pass and reports Diagnostics;
// the loader (load.go) type-checks packages from source against compiler
// export data obtained from `go list`, and the fixture runner
// (fixture.go) is the analysistest counterpart driving `// want` marker
// files. cmd/arblint is the driver.
//
// Suppression directives, shared by every analyzer:
//
//	//arblint:allow <name>[,<name>...] -- <reason>
//	//arblint:todo <name>[,<name>...] -- <reason>
//
// placed on the offending line or the line directly above it. `allow` is
// a reviewed, permanent exemption; `todo` marks tracked debt — a spot
// known to be unsound that the suite documents instead of silently
// passing (`arblint -todos` lists them).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and directives.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run inspects the package behind pass and reports findings through
	// pass.Report/Reportf. Returning an error aborts the whole run
	// (reserved for internal failures, not findings).
	Run func(pass *Pass) error
}

// Pass carries one analyzer's view of one package. Mod is the whole
// run's module view, through which interprocedural analyzers resolve
// callees across package boundaries and share summaries.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	Mod      *Module

	pkg  *Package
	diag *[]Diagnostic
}

// Diagnostic is one reported finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf reports a finding at pos unless a matching allow/todo
// directive suppresses it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.pkg.suppressed(p.Analyzer.Name, position) {
		return
	}
	*p.diag = append(*p.diag, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	})
}

// directive is one parsed //arblint: comment.
type directive struct {
	kind      string // "allow" or "todo"
	analyzers []string
	reason    string
	pos       token.Position
}

// parseDirectives scans a file's comments for arblint directives,
// recording suppressions per (analyzer, line).
func (pkg *Package) parseDirectives(fset *token.FileSet, f *ast.File) {
	filename := fset.Position(f.Pos()).Filename
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			if !strings.HasPrefix(text, "arblint:") {
				continue
			}
			text = strings.TrimPrefix(text, "arblint:")
			var kind string
			switch {
			case strings.HasPrefix(text, "allow "):
				kind, text = "allow", strings.TrimPrefix(text, "allow ")
			case strings.HasPrefix(text, "todo "):
				kind, text = "todo", strings.TrimPrefix(text, "todo ")
			default:
				continue
			}
			names, reason := text, ""
			if i := strings.Index(text, "--"); i >= 0 {
				names, reason = strings.TrimSpace(text[:i]), strings.TrimSpace(text[i+2:])
			}
			d := directive{kind: kind, reason: reason, pos: fset.Position(c.Pos())}
			for _, n := range strings.Split(names, ",") {
				if n = strings.TrimSpace(n); n != "" {
					d.analyzers = append(d.analyzers, n)
				}
			}
			pkg.directives = append(pkg.directives, d)
			for _, a := range d.analyzers {
				// The directive covers its own line and the next line, so
				// it can sit at the end of the offending line or alone on
				// the line above it.
				pkg.suppress[suppressKey{a, filename, d.pos.Line}] = true
				pkg.suppress[suppressKey{a, filename, d.pos.Line + 1}] = true
			}
		}
	}
}

type suppressKey struct {
	analyzer string
	file     string
	line     int
}

func (pkg *Package) suppressed(analyzer string, pos token.Position) bool {
	return pkg.suppress[suppressKey{analyzer, pos.Filename, pos.Line}]
}

// Todo is one tracked-debt marker (//arblint:todo).
type Todo struct {
	Pos       token.Position
	Analyzers []string
	Reason    string
}

// Todos returns every tracked-debt directive in the loaded packages, for
// `arblint -todos`.
func Todos(pkgs []*Package) []Todo {
	var out []Todo
	for _, pkg := range pkgs {
		for _, d := range pkg.directives {
			if d.kind == "todo" {
				out = append(out, Todo{Pos: d.pos, Analyzers: d.analyzers, Reason: d.reason})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos.Filename != out[j].Pos.Filename {
			return out[i].Pos.Filename < out[j].Pos.Filename
		}
		return out[i].Pos.Line < out[j].Pos.Line
	})
	return out
}

// Run applies each analyzer to each package and returns the surviving
// diagnostics in file/line order.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	mod := NewModule(pkgs)
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Mod:      mod,
				pkg:      pkg,
				diag:     &diags,
			}
			if err := a.Run(pass); err != nil {
				return diags, fmt.Errorf("%s: %s: %w", pkg.Path, a.Name, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].Pos.Filename != diags[j].Pos.Filename {
			return diags[i].Pos.Filename < diags[j].Pos.Filename
		}
		if diags[i].Pos.Line != diags[j].Pos.Line {
			return diags[i].Pos.Line < diags[j].Pos.Line
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}
