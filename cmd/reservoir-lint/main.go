// Command reservoir-lint runs the repo's invariant analyzers
// (internal/analysis: determinism, tagdiscipline, faultpanic)
// over Go packages and reports violations grep-style. It is
// the machine check behind DESIGN.md's "Machine-checked invariants"
// section and a hard CI gate.
//
// Usage:
//
//	reservoir-lint [flags] [packages]
//
// with the usual go-tool package patterns (default ./...). Exit status
// is 1 if any violation is found, 2 on operational errors.
//
// Flags:
//
//	-list               print the analyzers and their invariants
//	-waivers            print the waiver census (analyzer, site, reason)
//	-waiver-table FILE  cross-check the census against FILE's markdown
//	                    waiver table (DESIGN.md): every live waiver must
//	                    have a row with a matching count, and every row a
//	                    live waiver — so the waiver count cannot grow
//	                    without a reviewed diff to the table
//	-C DIR              run from DIR instead of the current directory
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"reservoir/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("reservoir-lint", flag.ExitOnError)
	list := fs.Bool("list", false, "print the analyzers and their invariants")
	waivers := fs.Bool("waivers", false, "print the waiver census")
	tableFile := fs.String("waiver-table", "", "cross-check the waiver census against this file's markdown waiver table")
	chdir := fs.String("C", "", "run from this directory")
	fs.Parse(args)

	analyzers := analysis.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	dir := *chdir
	if dir == "" {
		dir = "."
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := analysis.Load(dir, patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "reservoir-lint: %v\n", err)
		return 2
	}

	absDir, err := filepath.Abs(dir)
	if err != nil {
		absDir = dir
	}
	rel := func(name string) string {
		if r, err := filepath.Rel(absDir, name); err == nil && !strings.HasPrefix(r, "..") {
			return filepath.ToSlash(r)
		}
		return filepath.ToSlash(name)
	}

	nDiags := 0
	var census []analysis.Waiver
	for _, pkg := range pkgs {
		res, err := analysis.RunAnalyzers(pkg, analyzers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "reservoir-lint: %v\n", err)
			return 2
		}
		for _, d := range res.Diagnostics {
			fmt.Printf("%s:%d:%d: %s: %s\n", rel(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
			nDiags++
		}
		census = append(census, res.Waivers...)
	}

	if *waivers {
		printCensus(census, rel)
	}
	if *tableFile != "" {
		if !checkWaiverTable(*tableFile, census, rel) {
			return 1
		}
	}
	if nDiags > 0 {
		fmt.Fprintf(os.Stderr, "reservoir-lint: %d violation(s)\n", nDiags)
		return 1
	}
	return 0
}

// printCensus writes the waiver census: one line per waiver plus a
// per-analyzer summary, stable across runs.
func printCensus(census []analysis.Waiver, rel func(string) string) {
	byAnalyzer := make(map[string]int)
	fmt.Printf("waiver census: %d waiver(s)\n", len(census))
	for _, w := range census {
		byAnalyzer[w.Analyzer]++
		fmt.Printf("  %s:%d: %s -- %s\n", rel(w.Pos.Filename), w.Pos.Line, w.Analyzer, w.Reason)
	}
	names := make([]string, 0, len(byAnalyzer))
	for n := range byAnalyzer {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-14s %d\n", n, byAnalyzer[n])
	}
}

// tableRowRE matches one row of the DESIGN.md waiver table:
// | analyzer | `file` | count | reason |
var tableRowRE = regexp.MustCompile(`^\|\s*([a-z][a-z0-9-]*)\s*\|\s*` + "`" + `([^` + "`" + `|]+)` + "`" + `\s*\|\s*(\d+)\s*\|`)

// checkWaiverTable compares the live waiver census against the
// documented waiver table: every (analyzer, file) pair must appear with
// an exact count, and every table row must correspond to live waivers.
// A mismatch in either direction fails, so adding a waiver (or an extra
// one in an already-waived file) forces a reviewed diff to the table.
func checkWaiverTable(file string, census []analysis.Waiver, rel func(string) string) bool {
	f, err := os.Open(file)
	if err != nil {
		fmt.Fprintf(os.Stderr, "reservoir-lint: waiver table: %v\n", err)
		return false
	}
	defer f.Close()

	documented := make(map[string]int) // "analyzer file" -> count
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		m := tableRowRE.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		n, _ := strconv.Atoi(m[3])
		documented[m[1]+" "+strings.TrimSpace(m[2])] += n
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "reservoir-lint: waiver table: %v\n", err)
		return false
	}

	live := make(map[string]int)
	for _, w := range census {
		live[w.Analyzer+" "+rel(w.Pos.Filename)]++
	}

	ok := true
	keys := make([]string, 0, len(live))
	for k := range live {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if documented[k] != live[k] {
			fmt.Fprintf(os.Stderr, "reservoir-lint: waiver table: %s has %d live waiver(s) but the table documents %d "+
				"(update the waiver table in %s)\n", k, live[k], documented[k], file)
			ok = false
		}
	}
	dkeys := make([]string, 0, len(documented))
	for k := range documented {
		dkeys = append(dkeys, k)
	}
	sort.Strings(dkeys)
	for _, k := range dkeys {
		if live[k] == 0 {
			fmt.Fprintf(os.Stderr, "reservoir-lint: waiver table: %s is documented in %s but has no live waiver "+
				"(remove the stale row)\n", k, file)
			ok = false
		}
	}
	return ok
}
