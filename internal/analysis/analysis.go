// Package analysis is the repo's static-analysis suite: a small,
// dependency-free equivalent of golang.org/x/tools/go/analysis (which this
// module deliberately does not depend on) plus three repo-specific
// analyzers that machine-check the invariants the reproduction's
// correctness argument rests on:
//
//   - determinism: the deterministic packages (core, coll, distsel, rng,
//     workload, quickselect, btree, simnet) may not consult wall clocks,
//     the global math/rand state, map iteration order, or spawn goroutines
//     off the worker-owned path. One stray time.Now() would pass every
//     unit test and still diverge a multi-process cluster.
//   - tagdiscipline: transport Send/Recv tag arguments must trace to the
//     coll.Comm tag allocator or the reserved control-tag constants —
//     never bare integer literals.
//   - faultpanic: recover() in cluster code must type-check the recovered
//     value against transport.Fault (or the typed fatal transport errors)
//     and re-panic anything else, so fault-tolerance recovery can never
//     swallow a real bug.
//
// Intentional violations are waived in place with a comment:
//
//	//lint:allow <analyzer> -- reason
//
// on the flagged line or the line directly above it. Every waiver must
// carry a reason; waivers that no longer suppress anything are themselves
// reported. cmd/reservoir-lint runs the suite over the module and
// cross-checks the waiver census against DESIGN.md's waiver table.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer describes one invariant checker. Run inspects a single
// type-checked package through its Pass and reports findings via
// Pass.Reportf.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and waiver comments
	// (lowercase, no spaces).
	Name string
	// Doc is a one-paragraph description of the invariant.
	Doc string
	// Run performs the check. A nil error with no diagnostics means the
	// package satisfies the invariant.
	Run func(*Pass) error
}

// A Diagnostic is one reported violation.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// A Waiver is one //lint:allow comment that suppressed at least one
// diagnostic (or, in PackageResult.Unused, one that suppressed none).
type Waiver struct {
	Pos      token.Position
	Analyzer string
	Reason   string
}

func (w Waiver) String() string {
	return fmt.Sprintf("%s:%d: %s -- %s", w.Pos.Filename, w.Pos.Line, w.Analyzer, w.Reason)
}

// A Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	PkgPath   string
	Pkg       *types.Package
	TypesInfo *types.Info

	waivers map[string][]*waiverEntry // filename -> entries, this analyzer only
	diags   []Diagnostic
}

// Reportf records a violation at pos unless a matching waiver comment
// covers that line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	for _, w := range p.waivers[position.Filename] {
		if w.covers(position.Line) {
			w.uses++
			return
		}
	}
	p.diags = append(p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// waiverEntry is one parsed //lint:allow comment.
type waiverEntry struct {
	pos      token.Position
	analyzer string
	reason   string
	line     int // line the waiver covers (its own line, or the next)
	ownLine  bool
	uses     int
}

func (w *waiverEntry) covers(line int) bool {
	return line == w.line || (w.ownLine && line == w.line+1)
}

var waiverRE = regexp.MustCompile(`^//lint:allow\s+([a-z][a-z0-9-]*)\s+--\s+(\S.*)$`)

// malformedWaiverRE catches lint:allow comments missing the "-- reason"
// clause so they fail loudly instead of silently not waiving.
var malformedWaiverRE = regexp.MustCompile(`^//lint:allow\b`)

// parseWaivers extracts every //lint:allow comment of one file, keyed by
// nothing (all analyzers); RunAnalyzers filters per analyzer.
func parseWaivers(fset *token.FileSet, file *ast.File) (entries []*waiverEntry, malformed []Diagnostic) {
	// Lines that carry code: a waiver on such a line is trailing and
	// covers only that line; a waiver alone on its line covers the next.
	codeLines := make(map[int]bool)
	ast.Inspect(file, func(n ast.Node) bool {
		switch n.(type) {
		case nil, *ast.Comment, *ast.CommentGroup:
			return n != nil
		}
		if n.Pos().IsValid() {
			codeLines[fset.Position(n.Pos()).Line] = true
		}
		return true
	})
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := strings.TrimRight(c.Text, " \t")
			m := waiverRE.FindStringSubmatch(text)
			if m == nil {
				if malformedWaiverRE.MatchString(text) {
					malformed = append(malformed, Diagnostic{
						Pos:      fset.Position(c.Pos()),
						Analyzer: "waiver",
						Message:  `malformed waiver: want "//lint:allow <analyzer> -- reason"`,
					})
				}
				continue
			}
			pos := fset.Position(c.Pos())
			entries = append(entries, &waiverEntry{
				pos:      pos,
				analyzer: m[1],
				reason:   m[2],
				line:     pos.Line,
				ownLine:  !codeLines[pos.Line],
			})
		}
	}
	return entries, malformed
}

// PackageResult aggregates one package's findings across a set of
// analyzers.
type PackageResult struct {
	PkgPath     string
	Diagnostics []Diagnostic // violations, position-sorted
	Waivers     []Waiver     // waivers that suppressed something (the census)
	Unused      []Waiver     // stale waivers (reported as violations too)
}

// RunAnalyzers applies each analyzer to the package and folds the
// results: waived findings land in Waivers, waivers that suppressed
// nothing are reported both in Unused and as diagnostics (a stale waiver
// is itself a lint violation), and malformed waiver comments fail loudly.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) (*PackageResult, error) {
	res := &PackageResult{PkgPath: pkg.PkgPath}

	// Parse waivers once per file; split per analyzer name.
	byFile := make(map[string][]*waiverEntry)
	for _, f := range pkg.Files {
		entries, malformed := parseWaivers(pkg.Fset, f)
		res.Diagnostics = append(res.Diagnostics, malformed...)
		name := pkg.Fset.Position(f.Pos()).Filename
		byFile[name] = append(byFile[name], entries...)
	}

	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			PkgPath:   pkg.PkgPath,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			waivers:   make(map[string][]*waiverEntry),
		}
		for name, entries := range byFile {
			for _, w := range entries {
				if w.analyzer == a.Name {
					pass.waivers[name] = append(pass.waivers[name], w)
				}
			}
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", pkg.PkgPath, a.Name, err)
		}
		res.Diagnostics = append(res.Diagnostics, pass.diags...)
	}

	for _, entries := range byFile {
		for _, w := range entries {
			wv := Waiver{Pos: w.pos, Analyzer: w.analyzer, Reason: w.reason}
			switch {
			case w.uses > 0:
				res.Waivers = append(res.Waivers, wv)
			case !known[w.analyzer]:
				res.Diagnostics = append(res.Diagnostics, Diagnostic{
					Pos:      w.pos,
					Analyzer: "waiver",
					Message:  fmt.Sprintf("waiver names unknown analyzer %q", w.analyzer),
				})
			default:
				res.Unused = append(res.Unused, wv)
				res.Diagnostics = append(res.Diagnostics, Diagnostic{
					Pos:      w.pos,
					Analyzer: "waiver",
					Message:  fmt.Sprintf("stale waiver: %s suppresses nothing on this or the next line", w.analyzer),
				})
			}
		}
	}

	sortDiags := func(d []Diagnostic) {
		sort.Slice(d, func(i, j int) bool {
			if d[i].Pos.Filename != d[j].Pos.Filename {
				return d[i].Pos.Filename < d[j].Pos.Filename
			}
			if d[i].Pos.Line != d[j].Pos.Line {
				return d[i].Pos.Line < d[j].Pos.Line
			}
			return d[i].Analyzer < d[j].Analyzer
		})
	}
	sortDiags(res.Diagnostics)
	sort.Slice(res.Waivers, func(i, j int) bool {
		if res.Waivers[i].Pos.Filename != res.Waivers[j].Pos.Filename {
			return res.Waivers[i].Pos.Filename < res.Waivers[j].Pos.Filename
		}
		return res.Waivers[i].Pos.Line < res.Waivers[j].Pos.Line
	})
	return res, nil
}

// All returns the three repo analyzers in census order.
func All() []*Analyzer {
	return []*Analyzer{Determinism, TagDiscipline, FaultPanic}
}
