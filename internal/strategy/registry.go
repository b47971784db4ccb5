package strategy

import (
	"fmt"

	"repro/internal/core"
)

// Names of the five paper strategies, in the paper's presentation order.
var Names = []string{"KB-q-EGO", "mic-q-EGO", "MC-based q-EGO", "BSP-EGO", "TuRBO"}

// Interface conformance: every strategy satisfies core.Strategy, and the
// self-modeled ones additionally provide their own surrogate fit.
var (
	_ core.Strategy      = (*KBQEGO)(nil)
	_ core.Strategy      = (*MICQEGO)(nil)
	_ core.Strategy      = (*MCQEGO)(nil)
	_ core.Strategy      = (*BSPEGO)(nil)
	_ core.Strategy      = (*TuRBO)(nil)
	_ core.Strategy      = (*LocalPenalization)(nil)
	_ core.Strategy      = (*Portfolio)(nil)
	_ core.ModelProvider = (*TSRFF)(nil)
	_ core.ModelProvider = (*BNNGA)(nil)

	_ core.StrategyCheckpointer = (*Portfolio)(nil)
)

// ByName constructs a fresh strategy from its paper name.
func ByName(name string) (core.Strategy, error) {
	switch name {
	case "KB-q-EGO", "kb-q-ego", "kb":
		return NewKBQEGO(), nil
	case "mic-q-EGO", "mic-q-ego", "mic":
		return NewMICQEGO(), nil
	case "MC-based q-EGO", "mc-q-ego", "mc":
		return NewMCQEGO(), nil
	case "BSP-EGO", "bsp-ego", "bsp":
		return NewBSPEGO(), nil
	case "TuRBO", "turbo":
		return NewTuRBO(), nil
	case "TS-RFF", "ts-rff", "ts":
		return NewTSRFF(), nil
	case "LP-EGO", "lp-ego", "lp":
		return NewLocalPenalization(), nil
	case "BNN-GA", "bnn-ga", "bnn":
		return NewBNNGA(), nil
	case "Portfolio", "portfolio", "aph":
		return NewPortfolio(), nil
	}
	return nil, fmt.Errorf("strategy: unknown strategy %q", name)
}

// ExtendedNames lists the additional batch APs implemented beyond the
// paper's five: Thompson sampling over random-Fourier-feature sample paths,
// Local Penalization (González et al., surveyed by the paper), the
// Bayesian-neural-network-assisted GA of the authors' companion study
// (Briffoteaux et al. 2020, the paper's reference [8]), and the UCB1
// acquisition portfolio in the spirit of aphBO-2GP-3B — the natural partner
// of the asynchronous engine mode.
var ExtendedNames = []string{"TS-RFF", "LP-EGO", "BNN-GA", "Portfolio"}

// AcquisitionFor reports the acquisition function a strategy uses at a
// given batch size, reproducing the paper's Table 3.
func AcquisitionFor(name string, q int) string {
	switch name {
	case "TuRBO", "MC-based q-EGO":
		if q == 1 {
			return "EI"
		}
		return "qEI"
	case "mic-q-EGO":
		if q == 1 {
			return "EI"
		}
		return "EI/UCB (50%)"
	default: // KB-q-EGO, BSP-EGO
		return "EI"
	}
}
