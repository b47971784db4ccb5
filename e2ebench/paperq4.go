package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/strategy"
	"repro/internal/uphes"
)

// paper-q4 is the paper's experiment: mic-q-EGO with q = 4 on the UPHES
// scheduling problem, charged against a virtual budget to which measured
// fit and acquisition time count × OverheadFactor. A faster layer buys
// more cycles inside the budget, so the cycle count is the result.
const (
	paperStrategy = "mic-q-EGO"
	paperQ        = 4
	paperInit     = 16 * paperQ // the paper's initial design, Table 2
	// paperBudget is half the paper's 20 minutes: a 20-minute run takes
	// about 75 s of wall time on a 2-core host, too long to repeat twenty
	// times. At 10 minutes the GP fit still takes ~80% of the charged
	// overhead.
	paperBudget = 10 * time.Minute
	// paperOverhead is core.Engine's default OverheadFactor, spelled out
	// so that measured fit time can be recovered from CycleRecord.FitTime.
	paperOverhead = 6
	// paperPrefix is the cycle prefix per-cycle figures are taken over.
	// Every run completes it (the loop runs past the budget if it must),
	// so a faster fit that buys extra late, expensive cycles cannot
	// inflate its own per-cycle latency. 40 cycles leave ten samples
	// beyond the p75 tail.
	paperPrefix = 40
	// paperDefaultSeed and paperFingerprint pin the Y trace over the
	// design and the prefix.
	paperDefaultSeed = 1
	paperFingerprint = "fd505be4578ed413"
)

type paperQ4 struct {
	seed uint64
	t    *tracer
	sim  *uphes.Simulator
	at   *core.AskTell
}

func (w *paperQ4) setup(seed uint64, t *tracer) error {
	w.seed, w.t = seed, t
	sim, err := uphes.New(uphes.DefaultConfig())
	if err != nil {
		return err
	}
	w.sim = sim
	lo, hi := sim.Bounds()
	strat, err := strategy.ByName(paperStrategy)
	if err != nil {
		return err
	}
	if t != nil {
		if strat, err = wrapStrategy(strat, t); err != nil {
			return err
		}
	}
	w.at, err = core.NewAskTell(&core.Engine{
		// The loop evaluates batches itself (see evaluate); AskTell never
		// calls the problem's Evaluator.
		Problem:     &core.Problem{Name: "uphes", Lo: lo, Hi: hi, Minimize: false, Evaluator: sim},
		Strategy:    strat,
		BatchSize:   paperQ,
		InitSamples: paperInit,
		// The loop below applies paperBudget itself, with the engine's
		// own rule (no cycle starts once the clock has reached the
		// budget), so that it can go on to complete the prefix. The
		// trajectory does not depend on the budget, only where it stops.
		Budget:         24 * time.Hour,
		OverheadFactor: paperOverhead,
		Seed:           seed,
	})
	if err != nil {
		return err
	}
	// The initial design does not consume the budget; evaluating it is
	// set-up, and the first timed operation is cycle 1.
	for range paperInit / paperQ {
		b, err := w.at.Ask(context.Background())
		if err != nil {
			return err
		}
		ys, costs := w.evaluate(spanRef{}, b.Points)
		if err := w.at.Tell(b.ID, ys, costs); err != nil {
			return err
		}
	}
	return nil
}

func (w *paperQ4) close() error { return nil }

// evaluate runs the simulator on a batch; in a traced run, calls made
// for a cycle (ref.trace != 0) are spans of that cycle.
func (w *paperQ4) evaluate(ref spanRef, xs [][]float64) ([]float64, []time.Duration) {
	var ev parallel.Evaluator = w.sim
	if w.t != nil && ref.trace != 0 {
		ev = tracedEvaluator{inner: w.sim, t: w.t, ref: ref}
	}
	ys := make([]float64, len(xs))
	costs := make([]time.Duration, len(xs))
	for i, x := range xs {
		ys[i], costs[i] = ev.Eval(x)
	}
	return ys, costs
}

// cycleTiming is one cycle's measured wall-clock split.
type cycleTiming struct {
	op, ask, tell time.Duration
	calls         counters // tracer counters at the end of the cycle
}

func (w *paperQ4) run(ctx context.Context, _ time.Duration) (*childResult, error) {
	// A failed cycle leaves the run unusable, so it ends the run as an
	// error rather than counting as a failed operation.
	var timings []cycleTiming
	start := time.Now()
	for len(timings) < paperPrefix || w.at.Elapsed() < paperBudget {
		ct, err := w.cycle(ctx, int64(len(timings)+1))
		if err != nil {
			return nil, fmt.Errorf("cycle %d: %w", len(timings)+1, err)
		}
		timings = append(timings, ct)
	}
	wall := time.Since(start)
	rss := peakRSSKB()
	res := w.at.Result()
	out := paperSummary(res, timings)
	out.MaxRSSKB = rss
	out.Figures["wall_s"] = wall.Seconds()
	out.Params = map[string]any{
		"problem": "uphes", "strategy": paperStrategy, "q": paperQ, "init_samples": paperInit,
		"budget_s": paperBudget.Seconds(), "overhead_factor": paperOverhead, "prefix_cycles": paperPrefix,
		"seed": w.seed,
	}
	out.Checks = w.checks(res)
	if w.t != nil {
		out.Layers = paperLayers(res, timings[:paperPrefix])
	}
	return out, nil
}

// paperSummary derives the end-to-end figures. Like the paper, it reads
// them off the virtual clock: the budget count from the whole run, and a
// cycle's latency as the virtual time it was charged (simulation plus
// measured fit and acquisition × OverheadFactor). Latencies come from the
// fixed prefix only, so they do not depend on how many cycles the budget
// bought. Wall time per cycle is kept as a raw sample.
func paperSummary(res *core.Result, timings []cycleTiming) *childResult {
	cib := cyclesInBudget(res.History, paperBudget)
	lat := make([]float64, paperPrefix)
	wall := make([]float64, paperPrefix)
	var prev time.Duration
	for i, rec := range res.History[:paperPrefix] {
		lat[i] = ms(rec.Virtual - prev)
		prev = rec.Virtual
		wall[i] = ms(timings[i].op)
	}
	return &childResult{
		Attempted:   len(timings),
		OpsPerS:     cib / paperBudget.Seconds(),
		OpLatencyMS: lat,
		Samples:     map[string][]float64{"cycle_wall_ms": wall},
		Figures: map[string]float64{
			"cycles_in_budget": cib,
			"evals_in_budget":  float64(res.InitEvals + paperQ*int(math.Ceil(cib))),
			"cycles_run":       float64(res.Cycles),
		},
		Fingerprints: map[string]string{"prefix": fingerprint(res.Y[:paperInit+paperQ*paperPrefix])},
	}
}

// cycle runs one ask → evaluate → tell round of the BO loop.
func (w *paperQ4) cycle(ctx context.Context, id int64) (cycleTiming, error) {
	var opSpan, askSpan span
	if w.t != nil {
		opSpan = w.t.begin(id, 0, "core.cycle")
		askSpan = w.t.begin(id, opSpan.ID, "core.ask")
		ctx = withSpan(ctx, askSpan)
	}
	t0 := time.Now()
	b, err := w.at.Ask(ctx)
	t1 := time.Now()
	if err != nil {
		return cycleTiming{}, err
	}
	if b.Cycle != int(id) {
		return cycleTiming{}, fmt.Errorf("asked cycle %d, got batch of cycle %d", id, b.Cycle)
	}
	var tellSpan span
	if w.t != nil {
		w.t.end(askSpan)
	}
	ys, costs := w.evaluate(spanRef{id, opSpan.ID}, b.Points)
	if w.t != nil {
		tellSpan = w.t.begin(id, opSpan.ID, "core.tell")
	}
	t2 := time.Now()
	err = w.at.Tell(b.ID, ys, costs)
	t3 := time.Now()
	if err != nil {
		return cycleTiming{}, err
	}
	ct := cycleTiming{op: t3.Sub(t0), ask: t1.Sub(t0), tell: t3.Sub(t2)}
	if w.t != nil {
		w.t.end(tellSpan)
		w.t.end(opSpan)
		ct.calls = w.t.counters()
	}
	return ct, nil
}

// cyclesInBudget counts the cycles that fit in the budget: every cycle
// that ended within it, plus the share of the one that straddles its end.
// The engine completes and counts that straddling cycle in Result.Cycles;
// interpolating it makes the count move smoothly with measured time
// instead of in steps of one cycle.
func cyclesInBudget(h []core.CycleRecord, budget time.Duration) float64 {
	var prev time.Duration
	for i, r := range h {
		if r.Virtual >= budget {
			return float64(i) + float64(budget-prev)/float64(r.Virtual-prev)
		}
		prev = r.Virtual
	}
	return float64(len(h))
}

func (w *paperQ4) checks(res *core.Result) []check {
	cs := []check{
		checkf(res.Fallbacks == 0, "no acquisition fallbacks", "%d fallback cycles", res.Fallbacks),
		checkf(res.Evals == res.InitEvals+paperQ*res.Cycles, "evals = init + q·cycles",
			"%d evals, %d init, %d cycles", res.Evals, res.InitEvals, res.Cycles),
		checkf(res.Cycles >= paperPrefix, "prefix completed", "%d cycles", res.Cycles),
	}
	// Every told value must be what the simulator returns for its point,
	// and the incumbent must be the best of them.
	fresh, err := uphes.New(uphes.DefaultConfig())
	if err != nil {
		return append(cs, checkf(false, "trace re-evaluates", "%v", err))
	}
	bad, best := 0, math.Inf(-1)
	for i, x := range res.X {
		if y, _ := fresh.Eval(x); math.Float64bits(y) != math.Float64bits(res.Y[i]) {
			bad++
		}
		best = math.Max(best, res.Y[i])
	}
	cs = append(cs,
		checkf(bad == 0, "trace re-evaluates bit-identically", "%d of %d values differ", bad, len(res.X)),
		checkf(math.Float64bits(best) == math.Float64bits(res.BestY), "incumbent is the best value", "best %v, incumbent %v", best, res.BestY))
	if w.seed == paperDefaultSeed {
		fp := fingerprint(res.Y[:paperInit+paperQ*paperPrefix])
		cs = append(cs, checkf(fp == paperFingerprint, "Y trace matches the recorded fingerprint", "got %s, recorded %s", fp, paperFingerprint))
	}
	return cs
}

// paperLayers attributes the prefix cycles' time to the layers under them.
func paperLayers(res *core.Result, prefix []cycleTiming) map[string]float64 {
	n := float64(len(prefix))
	calls := prefix[len(prefix)-1].calls
	propose := time.Duration(calls.proposeNS)
	var fit, ask, tell time.Duration
	fallbacks := 0
	for i, ct := range prefix {
		fit += time.Duration(float64(res.History[i].FitTime) / paperOverhead)
		ask += ct.ask
		tell += ct.tell
		if res.History[i].Fallback {
			fallbacks++
		}
	}
	ask -= fit + propose
	return map[string]float64{
		"trace.ops":                  n,
		"core.cycles_per_op":         1,
		"gp.fit_ms_per_op":           ms(fit) / n,
		"strategy.propose_ms_per_op": ms(propose) / n,
		"core.ask_self_ms":           ms(ask) / n,
		"core.tell_ms":               ms(tell) / n,
		"gp.predict_calls_per_op":    float64(calls.predictCalls) / n,
		"gp.predict_us":              perCall(calls.predictNS, calls.predictCalls) / 1e3,
		"acq.pof_calls_per_op":       float64(calls.pofCalls) / n,
		"acq.fallback_ratio":         float64(fallbacks) / n,
		"uphes.evals_per_op":         float64(calls.evalCalls) / n,
		"uphes.eval_us":              perCall(calls.evalNS, calls.evalCalls) / 1e3,
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func perCall(ns, calls int64) float64 {
	if calls == 0 {
		return 0
	}
	return float64(ns) / float64(calls)
}
