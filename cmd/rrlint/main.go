// Command rrlint runs rrnorm's project-specific static analyzers over the
// module and reports invariant violations with file:line:col positions.
//
// Usage:
//
//	rrlint [-C dir] [-json] [-check name,...] [-list] [packages]
//
// The module is located by walking up from -C (default ".") to the nearest
// go.mod; the whole module is always analyzed, so the optional package
// argument is accepted only for `go`-tool muscle memory ("./...").
//
// Exit status: 0 when the tree is clean (suppressed diagnostics do not
// count), 1 when any diagnostic is reported, 2 when the module fails to
// load or type-check, or on usage errors.
//
// Suppressions: //rrlint:ignore <check> <reason> on the offending line or
// the line above. The check name must match and the reason is mandatory;
// malformed directives are themselves diagnostics.
//
// When GITHUB_ACTIONS=true (and -json is not set, so redirected JSON stays
// parseable), each diagnostic is additionally emitted as a
// GitHub workflow error annotation (::error file=...,line=...::...) so
// findings surface inline on the pull-request diff.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"rrnorm/internal/lint"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		dir      = flag.String("C", ".", "directory inside the module to lint")
		jsonOut  = flag.Bool("json", false, "emit the result as JSON on stdout")
		checks   = flag.String("check", "", "comma-separated subset of checks to run (default: all)")
		listOnly = flag.Bool("list", false, "list the available checks and exit")
	)
	flag.Parse()
	for _, arg := range flag.Args() {
		if arg != "./..." && arg != "..." {
			fmt.Fprintf(os.Stderr, "rrlint: unsupported package pattern %q (the whole module is always analyzed)\n", arg)
			return 2
		}
	}

	if *listOnly {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	cfg := lint.RunConfig{}
	if *checks != "" {
		byName := make(map[string]*lint.Analyzer)
		for _, a := range lint.Analyzers() {
			byName[a.Name] = a
		}
		for _, name := range strings.Split(*checks, ",") {
			name = strings.TrimSpace(name)
			a, ok := byName[name]
			if !ok {
				fmt.Fprintf(os.Stderr, "rrlint: unknown check %q (known: %s)\n", name, strings.Join(lint.AnalyzerNames(), ", "))
				return 2
			}
			cfg.Analyzers = append(cfg.Analyzers, a)
		}
	}

	res, err := lint.Run(*dir, cfg)
	if err != nil {
		var le *lint.LoadError
		if errors.As(err, &le) {
			// A structured load failure points at the broken line the same
			// way a diagnostic would, instead of an opaque exit-2 string.
			fmt.Fprintf(os.Stderr, "rrlint: %v\n", le)
			if le.Pos != "" && !*jsonOut {
				githubAnnotate(os.Stdout, le.Pos, "load", le.Msg)
			}
			return 2
		}
		fmt.Fprintf(os.Stderr, "rrlint: %v\n", err)
		return 2
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintf(os.Stderr, "rrlint: %v\n", err)
			return 2
		}
	} else {
		for _, d := range res.Diagnostics {
			fmt.Println(d)
		}
		fmt.Fprintf(os.Stderr, "rrlint: %d diagnostic(s), %d suppressed, %d package(s)\n",
			len(res.Diagnostics), res.Suppressed, res.Packages)
	}
	if !*jsonOut {
		for _, d := range res.Diagnostics {
			githubAnnotate(os.Stdout, fmt.Sprintf("%s:%d:%d", d.File, d.Line, d.Col), d.Check, d.Message)
		}
	}
	if len(res.Diagnostics) > 0 {
		return 1
	}
	return 0
}

// githubAnnotate emits a GitHub workflow error annotation for a finding at
// a file:line[:col] position when running under GitHub Actions, so findings
// surface inline on the pull-request diff. Messages have %, \r and \n
// escaped per the workflow-command encoding rules.
func githubAnnotate(w *os.File, pos, check, msg string) {
	if os.Getenv("GITHUB_ACTIONS") != "true" {
		return
	}
	parts := strings.SplitN(pos, ":", 3)
	if len(parts) < 2 {
		return
	}
	file, line := parts[0], parts[1]
	esc := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A")
	fmt.Fprintf(w, "::error file=%s,line=%s::%s: %s\n", file, line, check, esc.Replace(msg))
}
