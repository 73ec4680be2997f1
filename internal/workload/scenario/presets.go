package scenario

// presets are the named scenarios shipped with the repo: the grid the
// acceptance harness, loadgen, and the chaos harness run over. Kept in a
// slice (not a map) so enumeration order is deterministic everywhere.
//
// Adding a preset here automatically adds it to `reservoir-verify -accept
// -scenario all` and the weekly CI acceptance matrix.
var presets = []Spec{
	{
		// The paper's own stream with Poisson round sizes: the gentlest
		// realistic cell, and the regression anchor for the others.
		Name:    "uniform_poisson",
		Law:     "uniform",
		Arrival: "poisson",
	},
	{
		// Zipf-distributed weights with 1% of items boosted 50×: the
		// hot-key pattern of content-serving traffic. Mild rank skew.
		Name:     "zipf_hot",
		Law:      "zipf",
		Alpha:    1.1,
		ZipfN:    4096,
		HotFrac:  0.01,
		HotBoost: 50,
		RateSkew: 0.5,
	},
	{
		// Pareto weights with an infinite-variance tail (alpha < 2) under
		// Gamma-bursty arrivals and strong per-rank rate skew: the
		// adversarial heavy-hitter cell.
		Name:       "pareto_burst",
		Law:        "pareto",
		Alpha:      1.3,
		Arrival:    "bursty",
		BurstShape: 0.5,
		RateSkew:   1,
	},
	{
		// Lognormal weights (multiplicative skew) with Weibull arrivals
		// and a sinusoidal weight drift: slow diurnal-style variation.
		Name:        "lognormal_drift",
		Law:         "lognormal",
		Mu:          1,
		Sigma:       1.5,
		Arrival:     "weibull",
		BurstShape:  0.8,
		Drift:       "cycle",
		DriftRate:   0.5,
		DriftPeriod: 16,
	},
	{
		// On/off phases with a 10:1 duty swing, steep rank skew, and a
		// weight ramp: rolling client cohorts warming up over time.
		Name:      "onoff_skew",
		Law:       "uniform",
		Arrival:   "onoff",
		OnRounds:  4,
		OffRounds: 4,
		OffLevel:  0.1,
		RateSkew:  1.5,
		Drift:     "ramp",
		DriftRate: 0.05,
	},
}

// Presets returns all named scenarios in their canonical order.
func Presets() []Spec {
	return append([]Spec(nil), presets...)
}

// Preset returns the named scenario, or false if no preset has that name.
func Preset(name string) (Spec, bool) {
	for _, p := range presets {
		if p.Name == name {
			return p, true
		}
	}
	return Spec{}, false
}

// Names returns the preset names in canonical order (for CLI usage text).
func Names() []string {
	out := make([]string, len(presets))
	for i, p := range presets {
		out[i] = p.Name
	}
	return out
}
