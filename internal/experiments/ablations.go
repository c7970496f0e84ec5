package experiments

import (
	"fmt"
	"time"

	"tcss/internal/core"
)

// The runners in this file are ablation benches for the design choices
// DESIGN.md §4 calls out beyond the paper's own Table II: the smooth-minimum
// exponent α, the location-entropy weighting, and the stochastic user
// subsampling of the social head. They are not figures from the paper; they
// quantify the sensitivity of this implementation's choices.

// AblationAlpha sweeps the generalized-mean exponent of the social Hausdorff
// head. The paper (following Ribera et al.) argues α = −1 balances
// approximation quality to min(·) against gradient smoothness; this bench
// verifies the claim empirically.
func AblationAlpha(opts Options) (*Table, error) {
	inst, err := LoadPreset("gowalla", opts)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Ablation: smooth-minimum exponent alpha",
		Header: []string{"alpha", "Hit@10", "MRR"},
	}
	for _, alpha := range []float64{-0.25, -0.5, -1, -2, -4, -8} {
		cfg := TCSSConfig(opts)
		cfg.Alpha = alpha
		res, _, err := EvaluateTCSS(inst, cfg)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%g", alpha), f4(res.HitAtK), f4(res.MRR))
	}
	return t, nil
}

// AblationEntropy compares the full head against the variant without the
// location-entropy weights e_j, and reports the recommendation diversity
// (mean distinct-visitor count of recommended POIs) alongside accuracy —
// the entropy weights exist to trade a little popularity for diversity.
func AblationEntropy(opts Options) (*Table, error) {
	inst, err := LoadPreset("gowalla", opts)
	if err != nil {
		return nil, err
	}
	// Distinct visitors per POI in the training data.
	visitors := make([]map[int]bool, inst.Train.DimJ)
	for _, e := range inst.Train.Entries() {
		if visitors[e.J] == nil {
			visitors[e.J] = make(map[int]bool)
		}
		visitors[e.J][e.I] = true
	}
	t := &Table{
		Title:  "Ablation: location-entropy weighting",
		Header: []string{"Variant", "Hit@10", "MRR", "Mean visitors of top-10 recs"},
	}
	for _, disable := range []bool{false, true} {
		cfg := TCSSConfig(opts)
		cfg.DisableEntropy = disable
		res, m, err := EvaluateTCSS(inst, cfg)
		if err != nil {
			return nil, err
		}
		var pop float64
		var n int
		sc := core.NewRecScratch(m)
		for u := 0; u < inst.Train.DimI; u += 4 {
			for _, r := range m.TopNScratch(u, 6, 10, nil, sc) {
				pop += float64(len(visitors[r.POI]))
				n++
			}
		}
		label := "entropy-weighted (paper)"
		if disable {
			label = "unweighted"
		}
		t.AddRow(label, f4(res.HitAtK), f4(res.MRR), f4(pop/float64(n)))
	}
	return t, nil
}

// AblationUserSubsampling measures the accuracy/time trade-off of computing
// the social head on a random user subset per epoch instead of all users —
// the stochastic approximation this implementation adds for speed.
func AblationUserSubsampling(opts Options) (*Table, error) {
	inst, err := LoadPreset("gowalla", opts)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Ablation: social-head user subsampling",
		Header: []string{"Users/epoch", "Hit@10", "MRR", "Train time"},
	}
	total := inst.Train.DimI
	for _, users := range []int{total / 8, total / 4, total / 2, 0} {
		cfg := TCSSConfig(opts)
		cfg.UsersPerEpoch = users
		start := time.Now()
		res, _, err := EvaluateTCSS(inst, cfg)
		if err != nil {
			return nil, err
		}
		label := fmt.Sprintf("%d", users)
		if users == 0 {
			label = fmt.Sprintf("all (%d)", total)
		}
		t.AddRow(label, f4(res.HitAtK), f4(res.MRR), time.Since(start).Round(time.Millisecond).String())
	}
	return t, nil
}

// AblationGranularity reports the whole-dataset (not per-category) accuracy
// at the three time granularities — the headline claim that month-level
// tensors outperform week and hour (Figures 4/5 aggregate view).
func AblationGranularity(opts Options) (*Table, error) {
	t := &Table{
		Title:  "Ablation: time granularity (whole dataset)",
		Header: []string{"Granularity", "Hit@10", "MRR"},
	}
	insts, err := granularityInstances(opts)
	if err != nil {
		return nil, err
	}
	for _, inst := range insts {
		res, _, err := EvaluateTCSS(inst, TCSSConfig(opts))
		if err != nil {
			return nil, err
		}
		t.AddRow(inst.Gran.String(), f4(res.HitAtK), f4(res.MRR))
	}
	return t, nil
}
