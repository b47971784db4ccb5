// Package parallel provides batch-synchronous parallel evaluation of
// expensive black-box functions — the role MPI4Py worker ranks play in the
// paper — together with virtual-time accounting. Evaluations run
// concurrently on goroutines; their *reported* cost is the simulated
// latency of the underlying simulator (10 s for the UPHES black box), so a
// 20-minute experiment replays in seconds of wall time while preserving
// the paper's time bookkeeping exactly: a batch costs the maximum member
// latency plus a parallel-call overhead term.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// Evaluator is a black-box objective. Eval returns the objective value and
// the simulated latency of the evaluation (zero for a free function).
type Evaluator interface {
	Eval(x []float64) (y float64, cost time.Duration)
}

// EvaluatorFunc adapts a function to the Evaluator interface.
type EvaluatorFunc func(x []float64) (float64, time.Duration)

// Eval implements Evaluator.
func (f EvaluatorFunc) Eval(x []float64) (float64, time.Duration) { return f(x) }

// FixedCost wraps a plain objective with a constant simulated latency, the
// paper's "fixed time of 10 s for a simulation" convention for benchmark
// functions.
func FixedCost(f func(x []float64) float64, cost time.Duration) Evaluator {
	return EvaluatorFunc(func(x []float64) (float64, time.Duration) {
		return f(x), cost
	})
}

// Pool evaluates batches of candidates concurrently.
type Pool struct {
	// Workers bounds concurrent evaluations; 0 means unbounded for the
	// purposes of virtual-time accounting (one MPI rank per batch member,
	// so the round costs the single slowest evaluation). The number of
	// real goroutines is nevertheless clamped to maxUnboundedGoroutines()
	// so a pathological batch size cannot exhaust the scheduler; the
	// clamp is invisible in BatchResult.Virtual and only bounds physical
	// concurrency.
	Workers int
	// Overhead models the parallel-call overhead the paper attributes to
	// the simulator's RAO interfacing: a function of the batch size added
	// to each batch's virtual duration. Nil means zero overhead.
	Overhead func(q int) time.Duration
}

// BatchResult reports one batch-synchronous evaluation round.
type BatchResult struct {
	// Y holds the objective values aligned with the input batch.
	Y []float64
	// Costs holds the per-member simulated latencies aligned with the
	// input batch. Virtual is derived from them (VirtualDuration); they
	// are reported so ask/tell clients can forward member-level costs and
	// have the session recompute the identical batch time.
	Costs []time.Duration
	// Virtual is the simulated wall time of the round: the maximum member
	// latency plus overhead(q).
	Virtual time.Duration
	// Real is the actual compute time spent evaluating.
	Real time.Duration
}

// EvalBatch evaluates all points of the batch, in parallel, and returns the
// values together with the virtual duration of the round.
//
// Cancellation drains rather than kills: members that have not yet started
// when ctx is cancelled are skipped, members already running finish (a
// black-box simulation cannot be interrupted mid-flight), and EvalBatch
// returns only after every worker goroutine has exited. A non-nil error is
// returned exactly when at least one member went unevaluated; the
// BatchResult is then unusable and callers must discard the batch.
func (p *Pool) EvalBatch(ctx context.Context, ev Evaluator, xs [][]float64) (BatchResult, error) {
	q := len(xs)
	if q == 0 {
		panic("parallel: empty batch")
	}
	//lint:ignore detorder measured wall time is reported, never replayed; Virtual drives scheduling
	start := time.Now()
	ys := make([]float64, q)
	costs := make([]time.Duration, q)
	evaluated := make([]bool, q)

	// ranks is the accounting width (how many members run "at once" in
	// virtual time); spawn is the number of real goroutines. They differ
	// only in the unbounded case, where the rank model stays one-per-member
	// but physical concurrency is clamped.
	ranks := p.Workers
	if ranks <= 0 || ranks > q {
		ranks = q
	}
	spawn := ranks
	if p.Workers <= 0 {
		if ceil := maxUnboundedGoroutines(); spawn > ceil {
			spawn = ceil
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < spawn; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < q; i += spawn {
				if ctx.Err() != nil {
					return // cancelled before this member started
				}
				ys[i], costs[i] = ev.Eval(xs[i])
				evaluated[i] = true
			}
		}(w)
	}
	wg.Wait() // drain: all workers have exited past this point
	for _, ok := range evaluated {
		if !ok {
			return BatchResult{}, fmt.Errorf("parallel: batch abandoned: %w", ctx.Err())
		}
	}

	//lint:ignore detorder measured wall time is reported, never replayed; Virtual drives scheduling
	return BatchResult{Y: ys, Costs: costs, Virtual: p.VirtualDuration(costs), Real: time.Since(start)}, nil
}

// VirtualDuration computes the virtual wall time of one batch-synchronous
// round from the per-member simulated latencies, under this pool's worker
// configuration: the round lasts as long as its slowest member; with fewer
// workers than batch members, rounds serialize in ceil(q/workers) waves of
// the per-wave maximum (wave packing in submission order); the parallel-call
// overhead term is added last. EvalBatch reports exactly this value, and
// ask/tell sessions recompute it from told member costs, so closed-loop and
// inverted runs charge bit-identical evaluation times.
func (p *Pool) VirtualDuration(costs []time.Duration) time.Duration {
	q := len(costs)
	ranks := p.Workers
	if ranks <= 0 || ranks > q {
		ranks = q
	}
	var virtual time.Duration
	if ranks >= q {
		for _, c := range costs {
			if c > virtual {
				virtual = c
			}
		}
	} else {
		for w := 0; w < q; w += ranks {
			end := w + ranks
			if end > q {
				end = q
			}
			var wave time.Duration
			for _, c := range costs[w:end] {
				if c > wave {
					wave = c
				}
			}
			virtual += wave
		}
	}
	if p.Overhead != nil {
		virtual += p.Overhead(q)
	}
	return virtual
}

// maxUnboundedGoroutines is the physical-concurrency ceiling applied when
// Pool.Workers == 0. Black-box evaluations mostly block on simulated
// latency rather than CPU, so the ceiling is generous — max(64,
// 8·GOMAXPROCS) — but finite: a caller handing an unbounded pool a
// million-member batch gets a million virtual ranks, not a million
// goroutines.
func maxUnboundedGoroutines() int {
	return max(64, 8*runtime.GOMAXPROCS(0))
}

// ForEach runs fn(i) for every i in [0,n) on at most workers goroutines
// and returns when all calls have finished. workers <= 0 means one
// goroutine per index. Index assignment is deterministic (worker w takes
// i = w, w+workers, ...), so callers that pre-split rng streams per index
// replay bit-identically regardless of scheduling.
//
// This is the only sanctioned way to spawn goroutines outside this
// package: the godiscipline analyzer (cmd/pbolint) rejects bare go
// statements elsewhere, keeping the batch size q the single parallelism
// knob of the system. fn must write only to per-index state; ForEach
// provides no locking.
//
// Cancelling ctx stops workers between iterations: calls already in fn
// complete, no new indices are dispatched, and ForEach returns ctx.Err().
// A nil error means fn ran for every index.
func ForEach(ctx context.Context, workers, n int, fn func(i int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers <= 0 || workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			fn(i)
		}
		return ctx.Err()
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				if ctx.Err() != nil {
					return
				}
				fn(i)
			}
		}(w)
	}
	wg.Wait()
	return ctx.Err()
}

// ForEachBand partitions [0,n) into ceil(n/band) contiguous bands of
// width band (the last possibly shorter) and runs fn(lo, hi) for each on
// at most workers goroutines via ForEach. The partition depends only on n
// and band — never on workers or scheduling — which is the deterministic-
// partition half of the bit-identity argument the fit and predict paths
// rely on: a caller whose bands write disjoint output rows produces
// bitwise-identical results for any GOMAXPROCS, and a caller that reduces
// per-band partials in band order gets one fixed association independent
// of the worker count. Cancellation semantics are ForEach's.
func ForEachBand(ctx context.Context, workers, n, band int, fn func(lo, hi int)) error {
	if band <= 0 {
		panic(fmt.Sprintf("parallel: non-positive band width %d", band))
	}
	nb := (n + band - 1) / band
	return ForEach(ctx, workers, nb, func(b int) {
		lo := b * band
		hi := min(lo+band, n)
		fn(lo, hi)
	})
}

// LinearOverhead returns an overhead model base + perEval·q, matching the
// paper's observation that the simulator's interfacing overhead grows with
// the number of parallel calls.
func LinearOverhead(base, perEval time.Duration) func(int) time.Duration {
	return func(q int) time.Duration {
		return base + time.Duration(q)*perEval
	}
}

// String describes the pool configuration.
func (p *Pool) String() string {
	return fmt.Sprintf("parallel.Pool{Workers: %d}", p.Workers)
}
