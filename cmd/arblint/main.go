// Command arblint runs the repo's static-analysis suite: eight analyzers
// that mechanically enforce the engine's concurrency, cancellation and
// cleanup invariants (see internal/lint/analyzers).
//
// Standalone over package patterns (the CI mode):
//
//	go run ./cmd/arblint ./...
//	go run ./cmd/arblint -analyzers ctxflow,tmpcleanup ./internal/core
//	go run ./cmd/arblint -todos ./...      # list tracked-debt markers
//	go run ./cmd/arblint -json ./...       # machine-readable findings
//
// The baseline workflow separates accepted debt from regressions:
//
//	go run ./cmd/arblint -writebaseline .arblint-baseline.json ./...
//	go run ./cmd/arblint -baseline .arblint-baseline.json ./...
//
// The first records today's findings; the second fails only on findings
// beyond them — new debt breaks CI while pre-existing, reviewed debt
// (tracked in-source with //arblint:todo) stays visible in the
// committed baseline file.
//
// It also speaks the unitchecker protocol, so it can ride go vet:
//
//	go vet -vettool=$(which arblint) ./...
//
// Exit status: 0 clean, 1 diagnostics reported, 2 operational error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"arb/internal/lint"
	"arb/internal/lint/analyzers"
)

func main() {
	// `go vet -vettool` probes the tool's identity with -V=full before
	// handing it package configs; answer and get out of the way.
	for _, arg := range os.Args[1:] {
		if arg == "-V=full" || arg == "-V" || strings.HasPrefix(arg, "-V=") {
			fmt.Printf("arblint version devel\n")
			return
		}
	}

	var (
		sel       = flag.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
		list      = flag.Bool("list", false, "list the analyzers and exit")
		todos     = flag.Bool("todos", false, "list //arblint:todo tracked-debt markers instead of running analyzers")
		jsonOut   = flag.Bool("json", false, "emit findings as JSON on stdout")
		baseline  = flag.String("baseline", "", "accepted-findings file: only findings beyond it fail")
		writeBase = flag.String("writebaseline", "", "record current findings to this file and exit")
	)
	flag.Parse()

	if *list {
		for _, a := range analyzers.All {
			fmt.Printf("%-15s %s\n", a.Name, a.Doc)
		}
		return
	}

	active := analyzers.All
	if *sel != "" {
		active = nil
		for _, name := range strings.Split(*sel, ",") {
			a := analyzers.ByName(strings.TrimSpace(name))
			if a == nil {
				fmt.Fprintf(os.Stderr, "arblint: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			active = append(active, a)
		}
	}

	args := flag.Args()

	// go vet invokes the tool once per package with a single .cfg file.
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		runVet(args[0], active)
		return
	}

	if len(args) == 0 {
		args = []string{"./..."}
	}
	pkgs, err := lint.Load(".", args...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "arblint: %v\n", err)
		os.Exit(2)
	}

	if *todos {
		for _, td := range lint.Todos(pkgs) {
			fmt.Printf("%s: [%s] %s\n", td.Pos, strings.Join(td.Analyzers, ","), td.Reason)
		}
		return
	}

	diags, err := lint.Run(pkgs, active)
	if err != nil {
		fmt.Fprintf(os.Stderr, "arblint: %v\n", err)
		os.Exit(2)
	}

	root, err := lint.ModuleRoot(".")
	if err != nil {
		root = ""
	}

	if *writeBase != "" {
		if err := lint.WriteBaseline(*writeBase, root, diags); err != nil {
			fmt.Fprintf(os.Stderr, "arblint: %v\n", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "arblint: baseline %s records %d finding(s)\n", *writeBase, len(diags))
		return
	}

	if *baseline != "" {
		b, err := lint.LoadBaseline(*baseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "arblint: %v\n", err)
			os.Exit(2)
		}
		var absorbed int
		diags, absorbed = b.Filter(root, diags)
		if absorbed > 0 {
			fmt.Fprintf(os.Stderr, "arblint: %d baselined finding(s) suppressed; fix them to shrink %s\n", absorbed, *baseline)
		}
	}

	if *jsonOut {
		if err := writeJSON(os.Stdout, root, diags); err != nil {
			fmt.Fprintf(os.Stderr, "arblint: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "arblint: %d problem(s)\n", len(diags))
		os.Exit(1)
	}
}

// diagJSON is the machine-readable finding shape for -json.
type diagJSON struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"` // module-root-relative when possible
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

func writeJSON(w *os.File, root string, diags []lint.Diagnostic) error {
	out := make([]diagJSON, 0, len(diags))
	for _, d := range diags {
		out = append(out, diagJSON{
			Analyzer: d.Analyzer,
			File:     lint.RelFile(root, d.Pos.Filename),
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// runVet handles one unitchecker-protocol invocation from go vet.
func runVet(cfg string, active []*lint.Analyzer) {
	pkg, vetxOnly, done, err := lint.LoadVetConfig(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "arblint: %v\n", err)
		os.Exit(2)
	}
	if done != nil {
		if err := done(); err != nil {
			fmt.Fprintf(os.Stderr, "arblint: %v\n", err)
			os.Exit(2)
		}
	}
	if pkg == nil || vetxOnly {
		return
	}
	diags, err := lint.Run([]*lint.Package{pkg}, active)
	if err != nil {
		fmt.Fprintf(os.Stderr, "arblint: %v\n", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s\n", d)
	}
	if len(diags) > 0 {
		os.Exit(2)
	}
}
