package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/gp"
	"repro/internal/mat"
	"repro/internal/rng"
	"repro/internal/surrogate"
)

// This file inverts the engine's control flow: instead of Engine.Run
// owning the evaluate step, an AskTell hands out batches (Ask) and ingests
// their results (Tell), so evaluations can happen anywhere — an in-process
// pool (Engine.Run is now a thin ask/tell client), external simulator
// workers behind the pboserver HTTP API, or a test harness. The lifecycle
// phases of a cycle are unchanged: Ask performs fitModel and acquireBatch,
// Tell performs the observe/record bookkeeping evaluateBatch used to do,
// and the virtual-clock accounting and stream consumption order are
// identical to the closed loop — the golden strategy traces pin this
// bit-for-bit.

// ErrDone is returned by Ask when the run is complete: the virtual budget
// is exhausted or MaxCycles is reached. Result then reports the final
// outcome.
var ErrDone = errors.New("core: optimization complete")

// ErrNoBatchReady is returned by Ask when no new batch can be formed yet:
// either every initial-design point has been handed out but not all
// results have been told (so the first model fit cannot run), or — in
// asynchronous mode — all BatchSize in-flight slots are occupied. Callers
// should tell outstanding results and ask again.
var ErrNoBatchReady = errors.New("core: no batch ready until outstanding results are told")

// Batch is one unit of work handed out by Ask: q points to evaluate.
// Cycle 0 identifies initial-design waves; acquisition batches carry their
// 1-based cycle number. Callers must not mutate Points.
type Batch struct {
	// ID identifies the batch in Tell. IDs are unique per AskTell and
	// increase in ask order.
	ID int `json:"id"`
	// Cycle is 0 for initial-design waves, the 1-based BO cycle otherwise.
	Cycle int `json:"cycle"`
	// Points are the candidates to evaluate, aligned with Tell's ys.
	Points [][]float64 `json:"points"`
}

// pendingBatch is the ledger entry of a handed-out, not-yet-told batch,
// including the Ask-side timings needed to complete the cycle record when
// the results arrive.
type pendingBatch struct {
	batch      Batch
	fitVirtual time.Duration
	acqVirtual time.Duration
	fallback   bool
	reason     string
	// start is the virtual clock at the moment the batch was handed out.
	// Asynchronous tells complete the point at start + its evaluation
	// latency; synchronous mode never reads it.
	start time.Duration
}

// AskTell is the inverted engine: a resumable optimization run driven by
// an external evaluation loop. It is not safe for concurrent use; callers
// that share one across goroutines (the session layer) must serialize
// access.
type AskTell struct {
	cfg   Engine
	clock *Clock
	st    *State
	res   *Result

	factory ModelFactory
	model   surrogate.Surrogate

	// The rng streams are split from the master in the same fixed order as
	// the closed loop always has (design=1, acq=2, jitter=3, fit=4), so
	// traces replay bit-identically.
	designStream *rng.Stream
	acqStream    *rng.Stream
	jitterStream *rng.Stream
	fitStream    *rng.Stream

	// now is the measured-time source (default time.Now). Tests inject a
	// deterministic clock to make FitTime/AcqTime — and therefore whole
	// cycle records — reproducible across kill/resume runs.
	now func() time.Time

	design      [][]float64
	designAsked int // design points handed out so far
	designTold  int // design points observed so far

	cycle    int // last cycle number handed out by Ask
	recorded int // completed (recorded) cycles

	nextID  int
	pending map[int]*pendingBatch
	order   []int // pending batch IDs in ask order, for deterministic snapshots

	// fantasyFallbacks counts asynchronous cycles whose busy points could
	// not be fantasized (surrogate.ErrUnsupported) and were handled by the
	// local-penalty surrogate instead.
	fantasyFallbacks int

	failed error // sticky fatal error (model fit failure)
}

// NewAskTell validates the engine configuration and opens a fresh
// ask/tell run: streams split, initial design generated, strategy reset.
// The Engine's Pool is used only for virtual-time accounting of told
// batches (never for evaluation), and its Evaluator is never called.
func NewAskTell(e *Engine) (*AskTell, error) {
	cfg := e.defaults()
	if err := cfg.Problem.validate(); err != nil {
		return nil, err
	}
	if cfg.Strategy == nil {
		return nil, errors.New("core: nil strategy")
	}
	cfg.Strategy.Reset()

	master := rng.New(cfg.Seed, 0)
	at := &AskTell{
		cfg:          cfg,
		clock:        NewClock(cfg.OverheadFactor),
		st:           &State{Problem: cfg.Problem},
		factory:      cfg.Factory,
		designStream: master.Split(1),
		acqStream:    master.Split(2),
		jitterStream: master.Split(3),
		fitStream:    master.Split(4),
		//lint:ignore detorder sanctioned default for the injectable clock seam; tests swap it out
		now:     time.Now,
		pending: map[int]*pendingBatch{},
		res: &Result{
			Problem:  cfg.Problem.Name,
			Strategy: cfg.Strategy.Name(),
			Batch:    cfg.BatchSize,
		},
	}
	if at.factory == nil {
		// gpConfig reads the caller's Model verbatim (zero values defer to
		// gp-side defaults), exactly as the closed loop always constructed
		// its factory; only RefitEvery comes from the defaulted copy.
		at.factory = &gpFactory{cfg: e.gpConfig(cfg.Seed), refitEvery: cfg.Model.RefitEvery}
	}
	at.design = rng.ScaleToBounds(
		rng.LatinHypercube(cfg.InitSamples, cfg.Problem.Dim(), at.designStream),
		cfg.Problem.Lo, cfg.Problem.Hi)
	return at, nil
}

// SetNow overrides the measured-time source (default time.Now). Virtual
// fit/acquisition times are derived from it; injecting a deterministic
// clock makes complete cycle records — not just the Y trace — replay
// identically, which the kill-and-resume tests rely on.
func (at *AskTell) SetNow(now func() time.Time) {
	if now != nil {
		at.now = now
	}
}

// Ask returns the next batch of points to evaluate: initial-design waves
// of q first, then per-cycle acquisition batches (model fit + propose,
// charged to the virtual clock exactly as the closed loop charges them).
// It returns ErrDone when the budget or MaxCycles is exhausted,
// ErrNoBatchReady while initial-design results are still outstanding, an
// ErrInterrupted-wrapped error if ctx is cancelled, and a fatal error if
// the model fit fails (the run is then unusable).
//
// A cancelled Ask is transactional: the cycle's side effects — virtual
// clock charges, parent stream draws, warm-start state — are rolled back
// before the error returns, so a retried Ask (an HTTP timeout followed
// by a client retry, say) replays the cycle exactly as an uninterrupted
// run would have, keeping the session bit-identical on replay.
func (at *AskTell) Ask(ctx context.Context) (*Batch, error) {
	if at.failed != nil {
		return nil, at.failed
	}
	if ctx == nil {
		ctx = context.Background()
	}

	// Initial-design phase: hand out precomputed Latin-Hypercube waves —
	// whole q-waves synchronously, single points (capped at BatchSize in
	// flight) asynchronously.
	if at.designAsked < len(at.design) {
		step := at.cfg.BatchSize
		if at.cfg.Mode == Asynchronous {
			if at.inFlightPoints() >= at.cfg.BatchSize {
				return nil, ErrNoBatchReady
			}
			step = 1
		}
		end := min(at.designAsked+step, len(at.design))
		b := at.addPending(0, at.design[at.designAsked:end], 0, 0, false, "")
		at.designAsked = end
		return b, nil
	}
	if at.designTold < len(at.design) {
		return nil, ErrNoBatchReady
	}

	if at.cfg.Mode == Asynchronous {
		return at.askAsync(ctx)
	}

	// Cycle phase. The guards run in the same order as the closed loop:
	// budget, MaxCycles, context.
	if at.clock.Elapsed() >= at.cfg.Budget {
		return nil, ErrDone
	}
	if at.cfg.MaxCycles > 0 && at.cycle >= at.cfg.MaxCycles {
		return nil, ErrDone
	}
	if err := ctx.Err(); err != nil {
		return nil, interrupted("between cycles", err)
	}
	// With a cancellable context the cycle runs as a transaction: capture
	// the rewindable state up front and restore it if the fit or the
	// acquisition is cut short, so a retried Ask replays the cycle with
	// the same budget charge, the same stream draws and the same warm
	// starts as an uninterrupted run. A background context cannot cancel
	// and skips the capture.
	var rb *cycleRollback
	if ctx.Done() != nil {
		var err error
		if rb, err = at.captureCycle(); err != nil {
			return nil, err
		}
	}
	at.cycle++
	cycle := at.cycle
	at.st.Cycle = cycle

	fitVirtual, err := at.fitModel(ctx, cycle)
	if err != nil {
		if ctx.Err() != nil {
			if rerr := at.rollbackCycle(rb); rerr != nil {
				return nil, rerr
			}
			return nil, interrupted("model fit", ctx.Err())
		}
		at.failed = fmt.Errorf("core: cycle %d fit: %w", cycle, err)
		return nil, at.failed
	}

	points, acqVirtual, fallback, reason, err := at.acquireBatch(ctx, cycle)
	if err != nil {
		if rerr := at.rollbackCycle(rb); rerr != nil {
			return nil, rerr
		}
		return nil, interrupted("acquisition", err)
	}
	return at.addPending(cycle, points, fitVirtual, acqVirtual, fallback, reason), nil
}

// cycleRollback captures every piece of run state the cycle phase can
// mutate before its batch lands in the ledger: the virtual clock, the
// cycle counter, the current surrogate, the parent rng streams (Split
// consumes a parent draw, so even an aborted fit or propose advances
// them), and the factory's and strategy's checkpointable state.
type cycleRollback struct {
	cycle            int
	elapsed          time.Duration
	model            surrogate.Surrogate
	fantasyFallbacks int
	fitStream        []byte
	acqStream        []byte
	jitterStream     []byte
	factoryState     []byte
	hasFactory       bool
	strategyState    []byte
	hasStrategy      bool
}

func (at *AskTell) captureCycle() (*cycleRollback, error) {
	rb := &cycleRollback{
		cycle:            at.cycle,
		elapsed:          at.clock.Elapsed(),
		model:            at.model,
		fantasyFallbacks: at.fantasyFallbacks,
		fitStream:        at.fitStream.State(),
		acqStream:        at.acqStream.State(),
		jitterStream:     at.jitterStream.State(),
	}
	if fc, ok := at.factory.(FactoryCheckpointer); ok {
		state, err := fc.FactoryState()
		if err != nil {
			return nil, fmt.Errorf("core: capture factory state: %w", err)
		}
		rb.factoryState, rb.hasFactory = state, true
	}
	if sc, ok := at.cfg.Strategy.(StrategyCheckpointer); ok {
		state, err := sc.StrategyState()
		if err != nil {
			return nil, fmt.Errorf("core: capture strategy state: %w", err)
		}
		rb.strategyState, rb.hasStrategy = state, true
	}
	return rb, nil
}

// rollbackCycle rewinds a cancelled cycle to its captured state. A
// restore failure (or a cancellation that somehow arrived without a
// capture) leaves the run in an unknown state, so it is marked failed.
func (at *AskTell) rollbackCycle(rb *cycleRollback) error {
	if rb == nil {
		at.failed = errors.New("core: cancelled cycle has no rollback state")
		return at.failed
	}
	err := at.fitStream.Restore(rb.fitStream)
	if err == nil {
		err = at.acqStream.Restore(rb.acqStream)
	}
	if err == nil {
		err = at.jitterStream.Restore(rb.jitterStream)
	}
	if err == nil && rb.hasFactory {
		err = at.factory.(FactoryCheckpointer).RestoreFactoryState(rb.factoryState)
	}
	if err == nil && rb.hasStrategy {
		err = at.cfg.Strategy.(StrategyCheckpointer).RestoreStrategyState(rb.strategyState)
	}
	if err != nil {
		at.failed = fmt.Errorf("core: rollback of cancelled cycle: %w", err)
		return at.failed
	}
	at.cycle = rb.cycle
	at.st.Cycle = rb.cycle
	at.clock.elapsed = rb.elapsed
	at.model = rb.model
	at.fantasyFallbacks = rb.fantasyFallbacks
	return nil
}

func (at *AskTell) addPending(cycle int, points [][]float64, fitVirtual, acqVirtual time.Duration, fallback bool, reason string) *Batch {
	id := at.nextID
	at.nextID++
	pb := &pendingBatch{
		batch:      Batch{ID: id, Cycle: cycle, Points: points},
		fitVirtual: fitVirtual,
		acqVirtual: acqVirtual,
		fallback:   fallback,
		reason:     reason,
	}
	at.pending[id] = pb
	at.order = append(at.order, id)
	return &pb.batch
}

// Tell ingests the evaluation results of a previously asked batch: ys and
// costs align with the batch's Points. Acquisition batches charge the
// batch-synchronous virtual duration recomputed from costs under the
// engine Pool's worker model — exactly the value the closed loop's
// EvalBatch reports — then observe, notify the strategy and record the
// cycle. Initial-design waves only observe (the design never consumes
// budget). Batches may be told in any order. A non-finite value or a
// negative cost is rejected with the batch left pending.
func (at *AskTell) Tell(id int, ys []float64, costs []time.Duration) error {
	if at.failed != nil {
		return at.failed
	}
	pb, ok := at.pending[id]
	if !ok {
		return fmt.Errorf("core: tell for unknown batch id %d (already told, or never asked)", id)
	}
	n := len(pb.batch.Points)
	if len(ys) != n {
		return fmt.Errorf("core: tell batch %d: %d values for %d points", id, len(ys), n)
	}
	if costs != nil && len(costs) != n {
		return fmt.Errorf("core: tell batch %d: %d costs for %d points", id, len(costs), n)
	}
	// Reject malformed values while the batch is still pending, so the
	// caller can re-tell it: one NaN would otherwise reach the incumbent
	// and turn BestY into NaN for the rest of the run.
	for i, y := range ys {
		if math.IsNaN(y) || math.IsInf(y, 0) {
			return fmt.Errorf("core: tell batch %d: non-finite value %v for point %d", id, y, i)
		}
	}
	for i, c := range costs {
		if c < 0 {
			return fmt.Errorf("core: tell batch %d: negative cost %v for point %d", id, c, i)
		}
	}
	if costs == nil {
		costs = make([]time.Duration, n)
	}
	at.removePending(id)

	if pb.batch.Cycle == 0 {
		at.st.Observe(pb.batch.Points, ys)
		at.designTold += n
		at.res.InitEvals = len(at.st.Y)
		return nil
	}

	evalVirtual := at.cfg.Pool.VirtualDuration(costs)
	if at.cfg.Mode == Asynchronous {
		// Event-driven accounting: the point completes at its ask-time
		// clock plus its own latency (plus the pool's per-call overhead,
		// via VirtualDuration on the singleton batch). Other points told
		// in between may already have moved the clock past that instant.
		at.clock.AdvanceTo(pb.start + evalVirtual)
	} else {
		at.clock.AddSimulated(evalVirtual)
	}
	at.st.Observe(pb.batch.Points, ys)
	at.cfg.Strategy.Observe(at.st, pb.batch.Points, ys)
	at.record(pb.batch.Cycle, pb.fitVirtual, pb.acqVirtual, evalVirtual, pb.fallback, pb.reason)
	return nil
}

func (at *AskTell) removePending(id int) {
	delete(at.pending, id)
	for i, v := range at.order {
		if v == id {
			at.order = append(at.order[:i], at.order[i+1:]...)
			break
		}
	}
}

// fitModel produces the cycle's surrogate (measured time, charged as
// FitTime) — the same phase the closed loop ran, moved behind Ask.
func (at *AskTell) fitModel(ctx context.Context, cycle int) (time.Duration, error) {
	fitStart := at.now()
	var (
		model surrogate.Surrogate
		err   error
	)
	if mp, ok := at.cfg.Strategy.(ModelProvider); ok {
		model, err = mp.FitModel(ctx, at.st, cycle, at.fitStream.Split(uint64(cycle)))
	} else {
		model, err = at.factory.Fit(ctx, at.st, cycle)
	}
	fitReal := at.now().Sub(fitStart)
	if err != nil {
		return 0, err
	}
	at.model = model
	fitVirtual := time.Duration(float64(fitReal) * at.clock.OverheadFactor)
	at.clock.AddMeasured(fitReal)
	return fitVirtual, nil
}

// acquireBatch selects the cycle's batch (measured time, charged as
// AcqTime), with the closed loop's fallback-to-random and dedupe behavior.
// A non-nil error is returned only for cancellation.
func (at *AskTell) acquireBatch(ctx context.Context, cycle int) (batch [][]float64, virtual time.Duration, fallback bool, reason string, err error) {
	return at.acquire(ctx, cycle, at.model, at.cfg.BatchSize, nil)
}

// acquire is acquireBatch parameterized for both modes: the synchronous
// path passes the fitted model, q = BatchSize and no busy points (the
// computation is bit-identical to the historical acquireBatch); the
// asynchronous path passes the busy-conditioned model, q = 1 and the
// in-flight points so replacements dedupe against them.
func (at *AskTell) acquire(ctx context.Context, cycle int, model surrogate.Surrogate, q int, busy [][]float64) (batch [][]float64, virtual time.Duration, fallback bool, reason string, err error) {
	cfg := &at.cfg
	acqStart := at.now()
	batch, perr := cfg.Strategy.Propose(ctx, model, at.st, q, at.acqStream.Split(uint64(cycle)))
	acqReal := at.now().Sub(acqStart)
	if cerr := ctx.Err(); cerr != nil {
		// A proposal cut short by cancellation is not a real batch; do
		// not fall back to random search on the user's way out.
		return nil, 0, false, "", cerr
	}
	if perr != nil || len(batch) == 0 {
		fallback = true
		if perr != nil {
			reason = perr.Error()
		} else {
			reason = "empty batch"
		}
		batch = rng.UniformDesign(q, cfg.Problem.Lo, cfg.Problem.Hi, at.jitterStream)
	}
	batch = dedupeBatch(batch, at.st, busy, at.jitterStream)
	speedup := cfg.Strategy.APParallelism(q)
	if speedup > cfg.Cores {
		speedup = cfg.Cores
	}
	if speedup < 1 {
		speedup = 1
	}
	acqReal /= time.Duration(speedup)
	virtual = time.Duration(float64(acqReal) * at.clock.OverheadFactor)
	at.clock.AddMeasured(acqReal)
	return batch, virtual, fallback, reason, nil
}

// record appends the cycle's history record.
func (at *AskTell) record(cycle int, fitVirtual, acqVirtual, evalVirtual time.Duration, fallback bool, reason string) {
	if fallback {
		at.res.Fallbacks++
	}
	rec := CycleRecord{
		Cycle:          cycle,
		Evals:          len(at.st.Y),
		BestY:          at.st.BestY,
		Virtual:        at.clock.Elapsed(),
		FitTime:        fitVirtual,
		AcqTime:        acqVirtual,
		EvalTime:       evalVirtual,
		Fallback:       fallback,
		FallbackReason: reason,
	}
	at.res.History = append(at.res.History, rec)
	at.recorded++
}

// Result seals and returns the run's result so far: final incumbent,
// counters, history and the full evaluation trace. It may be called at
// any time; pending (asked, untold) batches are not part of the result.
func (at *AskTell) Result() *Result {
	at.res.BestX = at.st.BestX
	at.res.BestY = at.st.BestY
	at.res.Cycles = at.recorded
	at.res.Evals = len(at.st.Y)
	at.res.Virtual = at.clock.Elapsed()
	at.res.X = at.st.X
	at.res.Y = at.st.Y
	return at.res
}

// Done reports whether Ask would return ErrDone: the design is complete
// and the budget or cycle cap is exhausted.
func (at *AskTell) Done() bool {
	if at.designTold < len(at.design) {
		return false
	}
	if at.clock.Elapsed() >= at.cfg.Budget {
		return true
	}
	return at.cfg.MaxCycles > 0 && at.cycle >= at.cfg.MaxCycles
}

// Pending returns the ledger of asked-but-untold batches, in ask order.
func (at *AskTell) Pending() []Batch {
	out := make([]Batch, 0, len(at.order))
	for _, id := range at.order {
		out = append(out, at.pending[id].batch)
	}
	return out
}

// Elapsed returns the virtual time consumed so far.
func (at *AskTell) Elapsed() time.Duration { return at.clock.Elapsed() }

// runAskTell is the closed-loop driver: Engine.Run reduced to a thin
// ask/tell client around the evaluation pool. Error handling reproduces
// the historical Run contract exactly — phase-tagged ErrInterrupted wraps
// with a valid partial Result on cancellation, a nil Result on fatal fit
// errors.
func runAskTell(ctx context.Context, at *AskTell) (*Result, error) {
	cfg := &at.cfg
	for {
		b, err := at.Ask(ctx)
		switch {
		case errors.Is(err, ErrDone):
			return at.Result(), nil
		case errors.Is(err, ErrInterrupted):
			return at.Result(), err
		case err != nil:
			return nil, err
		}
		br, err := cfg.Pool.EvalBatch(ctx, cfg.Problem.Evaluator, b.Points)
		if err != nil {
			phase := "evaluation"
			if b.Cycle == 0 {
				phase = "initial design"
			}
			return at.Result(), interrupted(phase, err)
		}
		if err := at.Tell(b.ID, br.Y, br.Costs); err != nil {
			return nil, err
		}
	}
}

// ---- checkpoint / resume ----

// StrategyCheckpointer is an optional Strategy capability: strategies
// whose internal state evolves across cycles (TuRBO's trust region,
// BSP-EGO's partition tree, TS-RFF's hyperparameter model) implement it so
// a resumed run replays byte-for-byte. Stateless strategies need not.
type StrategyCheckpointer interface {
	// StrategyState serializes the run-specific state.
	StrategyState() ([]byte, error)
	// RestoreStrategyState replaces the run-specific state with a
	// previously serialized one.
	RestoreStrategyState([]byte) error
}

// FactoryCheckpointer is an optional ModelFactory capability: factories
// that carry fitted state across cycles (the default GP factory's
// warm-start hyperparameters) implement it for checkpoint/resume.
type FactoryCheckpointer interface {
	FactoryState() ([]byte, error)
	RestoreFactoryState([]byte) error
}

// Checkpoint is the complete serializable state of an AskTell run at an
// operation boundary: history, incumbent, virtual clock, the four rng
// stream states, fitted model hyperparameters, strategy state and the
// pending-batch ledger. ([]byte fields serialize as base64 under
// encoding/json; float64 fields round-trip exactly.)
type Checkpoint struct {
	Problem  string `json:"problem"`
	Strategy string `json:"strategy"`
	Batch    int    `json:"batch"`
	Seed     uint64 `json:"seed"`
	// Mode is the scheduling protocol the checkpoint was taken under
	// (int value of core.Mode; absent means synchronous, so v1
	// checkpoints resume unchanged). It is part of run identity: an
	// asynchronous trace cannot be replayed by a synchronous engine.
	Mode int `json:"mode,omitempty"`

	ClockNS  int64 `json:"clock_ns"`
	Cycle    int   `json:"cycle"`
	Recorded int   `json:"recorded"`
	// FantasyFallbacks counts async cycles that used the local-penalty
	// surrogate because the model family cannot fantasize.
	FantasyFallbacks int `json:"fantasy_fallbacks,omitempty"`

	Design      [][]float64 `json:"design"`
	DesignAsked int         `json:"design_asked"`
	DesignTold  int         `json:"design_told"`

	X         [][]float64   `json:"x"`
	Y         []float64     `json:"y"`
	BestX     []float64     `json:"best_x,omitempty"`
	BestY     float64       `json:"best_y"`
	HaveBest  bool          `json:"have_best"`
	InitEvals int           `json:"init_evals"`
	Fallbacks int           `json:"fallbacks"`
	History   []CycleRecord `json:"history"`

	DesignStream []byte `json:"design_stream"`
	AcqStream    []byte `json:"acq_stream"`
	JitterStream []byte `json:"jitter_stream"`
	FitStream    []byte `json:"fit_stream"`

	FactoryState  []byte `json:"factory_state,omitempty"`
	StrategyState []byte `json:"strategy_state,omitempty"`

	Pending []PendingCheckpoint `json:"pending,omitempty"`
	NextID  int                 `json:"next_id"`
}

// PendingCheckpoint is the serialized ledger entry of an asked-but-untold
// batch, including the Ask-side virtual timings needed to complete its
// cycle record after resume.
type PendingCheckpoint struct {
	ID       int           `json:"id"`
	Cycle    int           `json:"cycle"`
	Points   [][]float64   `json:"points"`
	FitNS    time.Duration `json:"fit_ns"`
	AcqNS    time.Duration `json:"acq_ns"`
	Fallback bool          `json:"fallback,omitempty"`
	Reason   string        `json:"reason,omitempty"`
	// StartNS is the virtual clock at ask time (asynchronous mode only;
	// absent in synchronous checkpoints, which never read it).
	StartNS time.Duration `json:"start_ns,omitempty"`
}

// Checkpoint captures the run state at the current operation boundary. A
// run resumed from it (ResumeAskTell) replays byte-for-byte identically to
// this run continuing uninterrupted, provided the strategy and factory
// either are stateless or implement the corresponding checkpointer
// capability. A failed run cannot be checkpointed.
func (at *AskTell) Checkpoint() (*Checkpoint, error) {
	if at.failed != nil {
		return nil, fmt.Errorf("core: checkpoint of failed run: %w", at.failed)
	}
	c := &Checkpoint{
		Problem:  at.cfg.Problem.Name,
		Strategy: at.cfg.Strategy.Name(),
		Batch:    at.cfg.BatchSize,
		Seed:     at.cfg.Seed,
		Mode:     int(at.cfg.Mode),

		ClockNS:          int64(at.clock.Elapsed()),
		Cycle:            at.cycle,
		Recorded:         at.recorded,
		FantasyFallbacks: at.fantasyFallbacks,

		Design:      cloneMatrix(at.design),
		DesignAsked: at.designAsked,
		DesignTold:  at.designTold,

		X:         cloneMatrix(at.st.X),
		Y:         mat.CloneVec(at.st.Y),
		BestY:     at.st.BestY,
		HaveBest:  at.st.BestX != nil,
		InitEvals: at.res.InitEvals,
		Fallbacks: at.res.Fallbacks,
		History:   append([]CycleRecord(nil), at.res.History...),

		DesignStream: at.designStream.State(),
		AcqStream:    at.acqStream.State(),
		JitterStream: at.jitterStream.State(),
		FitStream:    at.fitStream.State(),

		NextID: at.nextID,
	}
	if at.st.BestX != nil {
		c.BestX = mat.CloneVec(at.st.BestX)
	}
	if fc, ok := at.factory.(FactoryCheckpointer); ok {
		state, err := fc.FactoryState()
		if err != nil {
			return nil, fmt.Errorf("core: checkpoint factory state: %w", err)
		}
		c.FactoryState = state
	}
	if sc, ok := at.cfg.Strategy.(StrategyCheckpointer); ok {
		state, err := sc.StrategyState()
		if err != nil {
			return nil, fmt.Errorf("core: checkpoint strategy state: %w", err)
		}
		c.StrategyState = state
	}
	for _, id := range at.order {
		pb := at.pending[id]
		c.Pending = append(c.Pending, PendingCheckpoint{
			ID:       pb.batch.ID,
			Cycle:    pb.batch.Cycle,
			Points:   cloneMatrix(pb.batch.Points),
			FitNS:    pb.fitVirtual,
			AcqNS:    pb.acqVirtual,
			Fallback: pb.fallback,
			Reason:   pb.reason,
			StartNS:  pb.start,
		})
	}
	return c, nil
}

// ResumeAskTell rebuilds an AskTell from a checkpoint taken against the
// same engine configuration. Identity fields (problem, strategy, batch
// size, seed) are verified against the configuration; a mismatch is an
// error, since the resumed run could not replay the original.
func ResumeAskTell(e *Engine, c *Checkpoint) (*AskTell, error) {
	cfg := e.defaults()
	if err := cfg.Problem.validate(); err != nil {
		return nil, err
	}
	if cfg.Strategy == nil {
		return nil, errors.New("core: nil strategy")
	}
	if c == nil {
		return nil, errors.New("core: nil checkpoint")
	}
	if c.Problem != cfg.Problem.Name || c.Strategy != cfg.Strategy.Name() ||
		c.Batch != cfg.BatchSize || c.Seed != cfg.Seed || c.Mode != int(cfg.Mode) {
		return nil, fmt.Errorf("core: checkpoint (%s/%s q=%d seed=%d %s) does not match configuration (%s/%s q=%d seed=%d %s)",
			c.Problem, c.Strategy, c.Batch, c.Seed, Mode(c.Mode),
			cfg.Problem.Name, cfg.Strategy.Name(), cfg.BatchSize, cfg.Seed, cfg.Mode)
	}
	if len(c.Design) != cfg.InitSamples {
		return nil, fmt.Errorf("core: checkpoint has %d design points, configuration wants %d", len(c.Design), cfg.InitSamples)
	}

	cfg.Strategy.Reset()
	if c.StrategyState != nil {
		sc, ok := cfg.Strategy.(StrategyCheckpointer)
		if !ok {
			return nil, fmt.Errorf("core: checkpoint carries strategy state but %s cannot restore it", cfg.Strategy.Name())
		}
		if err := sc.RestoreStrategyState(c.StrategyState); err != nil {
			return nil, fmt.Errorf("core: restore strategy state: %w", err)
		}
	}

	designStream, err := rng.FromState(c.DesignStream)
	if err != nil {
		return nil, fmt.Errorf("core: restore design stream: %w", err)
	}
	acqStream, err := rng.FromState(c.AcqStream)
	if err != nil {
		return nil, fmt.Errorf("core: restore acq stream: %w", err)
	}
	jitterStream, err := rng.FromState(c.JitterStream)
	if err != nil {
		return nil, fmt.Errorf("core: restore jitter stream: %w", err)
	}
	fitStream, err := rng.FromState(c.FitStream)
	if err != nil {
		return nil, fmt.Errorf("core: restore fit stream: %w", err)
	}

	at := &AskTell{
		cfg:          cfg,
		clock:        NewClock(cfg.OverheadFactor),
		st:           &State{Problem: cfg.Problem, Cycle: c.Cycle},
		factory:      cfg.Factory,
		designStream: designStream,
		acqStream:    acqStream,
		jitterStream: jitterStream,
		fitStream:    fitStream,
		//lint:ignore detorder sanctioned default for the injectable clock seam; tests swap it out
		now:              time.Now,
		design:           cloneMatrix(c.Design),
		designAsked:      c.DesignAsked,
		designTold:       c.DesignTold,
		cycle:            c.Cycle,
		recorded:         c.Recorded,
		nextID:           c.NextID,
		fantasyFallbacks: c.FantasyFallbacks,
		pending:          map[int]*pendingBatch{},
		res: &Result{
			Problem:   cfg.Problem.Name,
			Strategy:  cfg.Strategy.Name(),
			Batch:     cfg.BatchSize,
			InitEvals: c.InitEvals,
			Fallbacks: c.Fallbacks,
			History:   append([]CycleRecord(nil), c.History...),
		},
	}
	at.clock.elapsed = time.Duration(c.ClockNS)
	if at.factory == nil {
		at.factory = &gpFactory{cfg: e.gpConfig(cfg.Seed), refitEvery: cfg.Model.RefitEvery}
	}
	if c.FactoryState != nil {
		fc, ok := at.factory.(FactoryCheckpointer)
		if !ok {
			return nil, errors.New("core: checkpoint carries factory state but the model factory cannot restore it")
		}
		if err := fc.RestoreFactoryState(c.FactoryState); err != nil {
			return nil, fmt.Errorf("core: restore factory state: %w", err)
		}
	}

	at.st.X = cloneMatrix(c.X)
	at.st.Y = mat.CloneVec(c.Y)
	if c.HaveBest {
		at.st.BestX = mat.CloneVec(c.BestX)
		at.st.BestY = c.BestY
	}
	if len(at.st.X) != len(at.st.Y) {
		return nil, fmt.Errorf("core: checkpoint trace inconsistent (%d points, %d values)", len(at.st.X), len(at.st.Y))
	}

	for _, pc := range c.Pending {
		if _, dup := at.pending[pc.ID]; dup || pc.ID >= c.NextID {
			return nil, fmt.Errorf("core: checkpoint pending batch id %d invalid", pc.ID)
		}
		at.pending[pc.ID] = &pendingBatch{
			batch:      Batch{ID: pc.ID, Cycle: pc.Cycle, Points: cloneMatrix(pc.Points)},
			fitVirtual: pc.FitNS,
			acqVirtual: pc.AcqNS,
			fallback:   pc.Fallback,
			reason:     pc.Reason,
			start:      pc.StartNS,
		}
		at.order = append(at.order, pc.ID)
	}
	return at, nil
}

func cloneMatrix(xs [][]float64) [][]float64 {
	if xs == nil {
		return nil
	}
	out := make([][]float64, len(xs))
	for i, x := range xs {
		out[i] = mat.CloneVec(x)
	}
	return out
}

// gpFactoryState is the serialized form of the default GP factory: the
// fitted hyperparameter state (nil before the first fit).
type gpFactoryState struct {
	Hyper *gp.HyperState `json:"hyper,omitempty"`
}

// FactoryState implements FactoryCheckpointer. Only the warm-start fields
// of the fitted model are captured: Refit and WithData read nothing else
// from their previous-model argument, and the next cycle's fit rebuilds
// the factor on current data anyway.
func (f *gpFactory) FactoryState() ([]byte, error) {
	var s gpFactoryState
	if f.model != nil {
		s.Hyper = f.model.HyperState()
	}
	return json.Marshal(&s)
}

// RestoreFactoryState implements FactoryCheckpointer: the restored model
// is a hyperparameter donor valid as the Refit/WithData previous-model
// argument, which is the factory's only use of it.
func (f *gpFactory) RestoreFactoryState(data []byte) error {
	var s gpFactoryState
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("gp factory state: %w", err)
	}
	if s.Hyper == nil {
		f.model = nil
		return nil
	}
	m, err := gp.RestoreHyperDonor(s.Hyper)
	if err != nil {
		return fmt.Errorf("gp factory state: %w", err)
	}
	f.model = m
	return nil
}
