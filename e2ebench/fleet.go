package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/uphes"
)

// fleet-year rolls an ensemble of plants through a year of daily
// rolling-horizon dispatch with scenario.Fleet, members in parallel. Each
// day is a small BO run on a constrained horizon problem, so the time goes
// to the acquisition inner loop (feasibility-weighted, over two GPs), the
// simulator and the commit path, while the GP fit is nearly idle: the
// opposite of paper-q4. Days end on cycle count, so a unit's work is
// fixed and its report is a pure function of the seed.
const (
	// fleetMembers is the ensemble size of one unit of work, fixed so
	// that a unit's report does not depend on the host's core count.
	fleetMembers = 4
	fleetDays    = 365
	// fleetCheckDays is how many days of member 0 are re-run serially to
	// check that the parallel fleet reproduces them.
	fleetCheckDays = 30
	// fleetDefaultSeed and fleetFingerprint pin unit 0's report.
	fleetDefaultSeed = 1
	fleetFingerprint = "e4c7b11ddfe0b281"
	fleetOverhead    = 6 // core.Engine's default OverheadFactor
)

// fleetOpt is the per-day optimizer shape of the checked-in
// BenchmarkFleet, on which the ROADMAP's profile was taken.
func fleetOpt(seed uint64) scenario.OptConfig {
	return scenario.OptConfig{
		Strategy:       "mic-q-EGO",
		BatchSize:      2,
		InitSamples:    4,
		MaxCycles:      2,
		MaxIter:        5,
		Restarts:       1,
		OverheadFactor: fleetOverhead,
		Seed:           seed,
	}
}

// unitSeed derives unit u's ensemble seed from the run seed.
func unitSeed(seed uint64, u int) uint64 { return rng.New(seed, uint64(u)).Uint64() }

func fleetConfig(seed uint64, u int) scenario.FleetConfig {
	s := unitSeed(seed, u)
	return scenario.FleetConfig{
		Gen:      scenario.GenConfig{Seed: s, Members: fleetMembers},
		Days:     fleetDays,
		Horizon:  1,
		Opt:      fleetOpt(s),
		Parallel: runtime.GOMAXPROCS(0),
	}
}

type fleetYear struct {
	seed uint64
	t    *tracer
}

func (w *fleetYear) setup(seed uint64, t *tracer) error {
	w.seed, w.t = seed, t
	// What a fleet pays before its first day: the simulator with its
	// Monte-Carlo set and the ensemble generator. Fleet.Run builds its
	// own per cell; building them here once makes set-up cover them.
	base := uphes.DefaultConfig()
	base.Seed = unitSeed(seed, 0)
	if _, err := uphes.New(base); err != nil {
		return err
	}
	scenario.NewGenerator(base, fleetConfig(seed, 0).Gen)
	return nil
}

func (w *fleetYear) close() error { return nil }

// dayTiming is one RunDay call's wall-clock interval.
type dayTiming struct {
	start, end time.Time
	res        *core.Result
}

// timedRunner records when each cell ran. Untraced it runs the cell with
// scenario.LocalRunner; traced it drives the same engine through the
// traced seams.
type timedRunner struct {
	w     *fleetYear
	unit  int
	times [][]dayTiming // [member][day]
}

// RunDay implements scenario.DayRunner.
func (r *timedRunner) RunDay(ctx context.Context, spec *scenario.DaySpec, opt scenario.OptConfig) (*core.Result, error) {
	start := time.Now()
	var res *core.Result
	var err error
	if r.w.t == nil {
		res, err = scenario.LocalRunner{}.RunDay(ctx, spec, opt)
	} else {
		res, err = r.w.tracedDay(ctx, r.opID(spec), spec, opt)
	}
	if err != nil {
		return nil, err
	}
	r.times[spec.Member][spec.Day] = dayTiming{start: start, end: time.Now(), res: res}
	return res, nil
}

func (r *timedRunner) opID(spec *scenario.DaySpec) int64 {
	return int64(r.unit*fleetMembers+spec.Member)*fleetDays + int64(spec.Day) + 1
}

// tracedDay is scenario.LocalRunner.RunDay with its seams wrapped: the
// engine is driven by core.AskTell exactly as Engine.Run drives it, so
// that Ask and Tell can be timed.
func (w *fleetYear) tracedDay(ctx context.Context, id int64, spec *scenario.DaySpec, opt scenario.OptConfig) (*core.Result, error) {
	t := w.t
	day := t.begin(id, 0, "scenario.day")
	defer t.end(day)
	eng, _, err := spec.Engine(opt)
	if err != nil {
		return nil, err
	}
	if eng.Strategy, err = wrapStrategy(eng.Strategy, t); err != nil {
		return nil, err
	}
	eng.Problem.Evaluator = tracedEvaluator{inner: eng.Problem.Evaluator, t: t, ref: spanRef{id, day.ID}}
	at, err := core.NewAskTell(eng)
	if err != nil {
		return nil, err
	}
	for {
		ask := t.begin(id, day.ID, "core.ask")
		b, err := at.Ask(withSpan(ctx, ask))
		t.end(ask)
		if errors.Is(err, core.ErrDone) {
			return at.Result(), nil
		}
		if err != nil {
			return nil, err
		}
		br, err := eng.Pool.EvalBatch(ctx, eng.Problem.Evaluator, b.Points)
		if err != nil {
			return nil, err
		}
		tell := t.begin(id, day.ID, "core.tell")
		err = at.Tell(b.ID, br.Y, br.Costs)
		t.end(tell)
		if err != nil {
			return nil, err
		}
	}
}

// fleetUnit is what one completed unit of work leaves behind. Day-level
// results are folded in as soon as the unit ends, so memory does not grow
// with the number of units a run completes.
type fleetUnit struct {
	fingerprint          string
	fallbacks, violating int
	wall                 time.Duration
	latencyMS            []float64
	speed                float64 // host speed while the unit ran
	// Traced-run aggregates.
	busy, commit, fit      time.Duration
	cycles, cycleFallbacks int
	// member0 is kept for the serial re-run check.
	member0 *scenario.MemberResult
}

func (w *fleetYear) runUnit(ctx context.Context, u int) (*fleetUnit, error) {
	r := &timedRunner{w: w, unit: u, times: make([][]dayTiming, fleetMembers)}
	for m := range r.times {
		r.times[m] = make([]dayTiming, fleetDays)
	}
	start := time.Now()
	rep, err := (&scenario.Fleet{Cfg: fleetConfig(w.seed, u), Runner: r}).Run(ctx)
	if err != nil {
		return nil, err
	}
	fu := &fleetUnit{
		fingerprint: reportFingerprint(rep),
		fallbacks:   rep.Fallbacks,
		violating:   rep.ViolatingDays,
		wall:        time.Since(start),
		member0:     rep.PerMember[0],
	}
	for _, member := range r.times {
		for d, dt := range member {
			// A day's latency runs from its RunDay start to the next
			// day's RunDay start: the day's BO run plus committing it.
			if d+1 < len(member) {
				fu.latencyMS = append(fu.latencyMS, ms(member[d+1].start.Sub(dt.start)))
				fu.commit += member[d+1].start.Sub(dt.end)
			}
			fu.busy += dt.end.Sub(dt.start)
			for _, rec := range dt.res.History {
				fu.cycles++
				fu.fit += time.Duration(float64(rec.FitTime) / fleetOverhead)
				if rec.Fallback {
					fu.cycleFallbacks++
				}
			}
		}
	}
	return fu, nil
}

func (w *fleetYear) run(ctx context.Context, d time.Duration) (*childResult, error) {
	// Each unit is bracketed by two host-speed probes; their mean is the
	// speed the unit ran at (see probe.go).
	var units []*fleetUnit
	var wall time.Duration
	before := hostSpeed()
	for len(units) == 0 || wall < d {
		u, err := w.runUnit(ctx, len(units))
		if err != nil {
			return nil, fmt.Errorf("unit %d: %w", len(units), err)
		}
		after := hostSpeed()
		u.speed = (before + after) / 2
		before = after
		if len(units) > 0 {
			u.member0 = nil
		}
		units = append(units, u)
		wall += u.wall
	}
	rss := peakRSSKB()
	days := len(units) * fleetMembers * fleetDays
	// Throughput is the median over units, each a fixed amount of work,
	// so that a burst of load from outside the benchmark that slows one
	// or two units does not move it; each unit's rate and latencies are
	// scaled by the host speed it ran at.
	raw := make([]float64, len(units))
	scaled := make([]float64, len(units))
	speeds := make([]float64, len(units))
	for i, u := range units {
		raw[i] = fleetMembers * fleetDays / u.wall.Seconds()
		scaled[i] = raw[i] / u.speed
		speeds[i] = u.speed
	}
	out := &childResult{
		Attempted: days,
		MaxRSSKB:  rss,
		OpsPerS:   median(scaled),
		Figures: map[string]float64{
			"days_per_min":     60 * median(scaled),
			"days_per_min_raw": 60 * median(raw),
			"host_speed":       median(speeds),
			"units":            float64(len(units)),
		},
		Samples: map[string][]float64{"unit_days_per_s_raw": raw, "host_speed": speeds},
		Params: map[string]any{
			"members_per_unit": fleetMembers, "days": fleetDays, "horizon": 1, "parallel": runtime.GOMAXPROCS(0),
			"opt": fleetOpt(0), "seed": w.seed,
		},
	}
	fallbacks, violating := 0, 0
	out.Fingerprints = map[string]string{}
	for i, u := range units {
		out.Fingerprints[fmt.Sprint("unit", i)] = u.fingerprint
		fallbacks += u.fallbacks
		violating += u.violating
		for _, l := range u.latencyMS {
			out.OpLatencyMS = append(out.OpLatencyMS, l*u.speed)
		}
	}
	out.Figures["optimized_day_ratio"] = 1 - float64(fallbacks)/float64(days)
	out.Checks = []check{
		checkf(violating == 0, "no violating days", "%d violating of %d", violating, days),
		checkf(fallbacks < days, "some days optimized", "%d fallback days of %d", fallbacks, days),
		w.serialCheck(ctx, units[0].member0),
	}
	if w.seed == fleetDefaultSeed {
		fp := units[0].fingerprint
		out.Checks = append(out.Checks, checkf(fp == fleetFingerprint, "unit 0 report matches the recorded fingerprint", "got %s, recorded %s", fp, fleetFingerprint))
	}
	if w.t != nil {
		out.Layers = w.layers(units, wall, fallbacks)
	}
	return out, nil
}

// serialCheck re-runs the first days of member 0 alone with the stock
// in-process runner and compares them bit for bit with the fleet's.
func (w *fleetYear) serialCheck(ctx context.Context, fleet *scenario.MemberResult) check {
	cfg := fleetConfig(w.seed, 0)
	mr, err := scenario.RunMember(ctx, scenario.LocalRunner{}, cfg.Gen, cfg.Cons, cfg.Opt, 0, fleetCheckDays, cfg.Horizon, cfg.SimLatency)
	if err != nil {
		return checkf(false, "member 0 reproduces serially", "%v", err)
	}
	diff := 0
	for d, got := range mr.Days {
		want := fleet.Days[d]
		if math.Float64bits(got.Profit) != math.Float64bits(want.Profit) || fingerprint(got.X) != fingerprint(want.X) || got.Fallback != want.Fallback {
			diff++
		}
	}
	return checkf(diff == 0, "member 0 reproduces serially", "%d of %d days differ", diff, len(mr.Days))
}

// reportFingerprint hashes what a fleet report decides: each member's
// revenue bits, fallback days and violating days.
func reportFingerprint(rep *scenario.Report) string {
	h := newHash64()
	for _, m := range rep.PerMember {
		h.bytes(fmt.Appendf(nil, "%d:%x:%d:%d;", m.Member, math.Float64bits(m.Revenue), m.Fallbacks, m.ViolatingDays))
	}
	return h.String()
}

func (w *fleetYear) layers(units []*fleetUnit, wall time.Duration, fallbackDays int) map[string]float64 {
	var busy, commit, fit, ask, tell time.Duration
	cycles, fallbacks := 0, 0
	for _, u := range units {
		busy += u.busy
		commit += u.commit
		fit += u.fit
		cycles += u.cycles
		fallbacks += u.cycleFallbacks
	}
	for _, s := range w.t.snapshot() {
		switch s.Name {
		case "core.ask":
			ask += s.dur()
		case "core.tell":
			tell += s.dur()
		}
	}
	days := len(units) * fleetMembers * fleetDays
	n := float64(days)
	c := w.t.counters()
	propose := time.Duration(c.proposeNS)
	return map[string]float64{
		"trace.ops":                    n,
		"core.cycles_per_op":           float64(cycles) / n,
		"gp.fit_ms_per_op":             ms(fit) / n,
		"strategy.propose_ms_per_op":   ms(propose) / n,
		"core.ask_self_ms":             ms(ask-fit-propose) / n,
		"core.tell_ms":                 ms(tell) / n,
		"gp.predict_calls_per_op":      float64(c.predictCalls) / n,
		"gp.predict_us":                perCall(c.predictNS, c.predictCalls) / 1e3,
		"acq.pof_calls_per_op":         float64(c.pofCalls) / n,
		"acq.fallback_ratio":           float64(fallbacks) / float64(max(cycles, 1)),
		"uphes.evals_per_op":           float64(c.evalCalls) / n,
		"uphes.eval_us":                perCall(c.evalNS, c.evalCalls) / 1e3,
		"scenario.commit_ms_per_op":    ms(commit) / float64(days-len(units)*fleetMembers),
		"scenario.optimized_day_ratio": 1 - float64(fallbackDays)/n,
		"parallel.member_utilization":  busy.Seconds() / (wall.Seconds() * float64(runtime.GOMAXPROCS(0))),
	}
}
