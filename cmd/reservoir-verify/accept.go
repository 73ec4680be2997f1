package main

import (
	"fmt"
	"strings"
	"time"

	"reservoir/internal/stats/accept"
	"reservoir/internal/workload/scenario"
)

// acceptOpts collects the acceptance-harness flags (see main.go).
type acceptOpts struct {
	scenarios string // comma list of preset names, or "all"
	algos     string // comma list of algorithms
	trials    int
	p         int
	k         int
	rounds    int
	batch     int
	shards    int
	seed      uint64
	alpha     float64
	out       string // verdict report path ("" = stdout only)
	mutant    bool   // power check: swap in the biased sampler, expect REJECTED
}

// runAccept runs the statistical acceptance harness over the requested
// (algorithm × scenario) cells and returns an error when the verdict is
// wrong: a plain run must ACCEPT, a -mutant power check must REJECT.
func runAccept(o acceptOpts) error {
	scens, err := resolveScenarios(o.scenarios)
	if err != nil {
		return err
	}
	cfg := accept.Config{
		Algorithms: splitList(o.algos),
		Scenarios:  scens,
		Trials:     o.trials,
		P:          o.p,
		K:          o.k,
		Rounds:     o.rounds,
		BatchLen:   o.batch,
		Shards:     o.shards,
		Seed:       o.seed,
		Alpha:      o.alpha,
	}
	if o.mutant {
		// The power check only makes sense for the sequential cell: the
		// mutant replaces the sequential sampler factory.
		cfg.Algorithms = []string{"sequential"}
		cfg.Sequential = accept.NewMutantWeighted
	}
	rep, err := accept.Run(cfg)
	if err != nil {
		return err
	}
	rep.CreatedAt = time.Now().UTC().Format(time.RFC3339)
	fmt.Print(rep.Summary())
	if o.out != "" {
		if err := rep.WriteFile(o.out); err != nil {
			return fmt.Errorf("writing %s: %w", o.out, err)
		}
		fmt.Printf("wrote verdict report to %s\n", o.out)
	}
	if o.mutant {
		if rep.Pass {
			return fmt.Errorf("power check FAILED: the deliberately biased sampler was ACCEPTED — the suite cannot detect a broken sampler at these settings")
		}
		fmt.Println("power check passed: biased mutant REJECTED")
		return nil
	}
	if !rep.Pass {
		return fmt.Errorf("acceptance FAILED: %s", strings.Join(rep.Failures(), ", "))
	}
	return nil
}

func resolveScenarios(list string) ([]scenario.Spec, error) {
	if list == "" || list == "all" {
		return scenario.Presets(), nil
	}
	var out []scenario.Spec
	for _, name := range splitList(list) {
		sp, ok := scenario.Preset(name)
		if !ok {
			return nil, fmt.Errorf("unknown scenario %q (have: %s)", name, strings.Join(scenario.Names(), ", "))
		}
		out = append(out, sp)
	}
	return out, nil
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
