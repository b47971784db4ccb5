package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/acq"
	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/surrogate"
)

// span is one timed call at a layer boundary. The spans of one cycle, day
// or round trip share Trace; Parent is the ID of the span that caused
// this one (0 for the op's root span).
type span struct {
	Trace  int64  `json:"trace"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory and counts calls at the seams that are too
// hot for a span each (surrogate predictions, feasibility probes). A nil
// *tracer is the untraced run: nothing is wrapped and nothing recorded.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64

	mu    sync.Mutex
	spans []span

	proposeNS    atomic.Int64
	predictCalls atomic.Int64
	predictNS    atomic.Int64
	pofCalls     atomic.Int64
	evalCalls    atomic.Int64
	evalNS       atomic.Int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span; the caller closes it with end.
func (t *tracer) begin(trace, parent int64, name string) span {
	return span{Trace: trace, ID: t.ids.Add(1), Parent: parent, Name: name, Start: t.now()}
}

func (t *tracer) end(s span) span {
	s.End = t.now()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			return errors.Join(err, f.Close())
		}
	}
	if err := w.Flush(); err != nil {
		return errors.Join(err, f.Close())
	}
	return f.Close()
}

// spanRef travels in a context so that a seam that receives one (Propose,
// the HTTP transport) can parent its span under the caller's.
type spanRef struct{ trace, parent int64 }

type spanKey struct{}

func withSpan(ctx context.Context, s span) context.Context {
	return context.WithValue(ctx, spanKey{}, spanRef{s.Trace, s.ID})
}

func spanFrom(ctx context.Context) spanRef {
	r, _ := ctx.Value(spanKey{}).(spanRef)
	return r
}

// counters is a point-in-time copy of the tracer's call counters.
type counters struct {
	proposeNS, predictCalls, predictNS, pofCalls, evalCalls, evalNS int64
}

func (t *tracer) counters() counters {
	return counters{t.proposeNS.Load(), t.predictCalls.Load(), t.predictNS.Load(), t.pofCalls.Load(), t.evalCalls.Load(), t.evalNS.Load()}
}

// ---- core.Strategy ----

// tracedStrategy times Propose and hands the strategy a counting
// surrogate. It embeds the interface, so it would hide optional
// capabilities; wrapStrategy refuses strategies that have any.
type tracedStrategy struct {
	core.Strategy
	t *tracer
}

func wrapStrategy(s core.Strategy, t *tracer) (core.Strategy, error) {
	if _, ok := s.(core.StrategyCheckpointer); ok {
		return nil, fmt.Errorf("trace: %s checkpoints its state; the wrapper would hide it", s.Name())
	}
	if _, ok := s.(core.ModelProvider); ok {
		return nil, fmt.Errorf("trace: %s fits its own model; the wrapper would hide it", s.Name())
	}
	return tracedStrategy{s, t}, nil
}

// Propose implements core.Strategy.
func (s tracedStrategy) Propose(ctx context.Context, model surrogate.Surrogate, st *core.State, q int, stream *rng.Stream) ([][]float64, error) {
	ref := spanFrom(ctx)
	sp := s.t.begin(ref.trace, ref.parent, "strategy.propose")
	out, err := s.Strategy.Propose(ctx, wrapSurrogate(model, s.t), st, q, stream)
	s.t.proposeNS.Add(int64(s.t.end(sp).dur()))
	return out, err
}

// ---- surrogate.Surrogate ----

// countedSurrogate counts and times predictions. Fantasies are wrapped
// too, so predictions on believed models count as well.
type countedSurrogate struct {
	surrogate.Surrogate
	t *tracer
}

// feasibleSurrogate is a countedSurrogate over a model that carries a
// constraint model: acq.Weighted finds the capability through it exactly
// as it would on the bare model.
type feasibleSurrogate struct {
	countedSurrogate
	fp acq.FeasibilityProvider
}

func wrapSurrogate(m surrogate.Surrogate, t *tracer) surrogate.Surrogate {
	c := countedSurrogate{m, t}
	if fp, ok := m.(acq.FeasibilityProvider); ok {
		return feasibleSurrogate{c, fp}
	}
	return c
}

func (c countedSurrogate) count(start time.Time) {
	c.t.predictNS.Add(int64(time.Since(start)))
	c.t.predictCalls.Add(1)
}

// Predict implements surrogate.Surrogate.
func (c countedSurrogate) Predict(x []float64) (float64, float64) {
	defer c.count(time.Now())
	return c.Surrogate.Predict(x)
}

// PredictWithGrad implements surrogate.Surrogate.
func (c countedSurrogate) PredictWithGrad(x []float64, dMean, dSD []float64) (float64, float64) {
	defer c.count(time.Now())
	return c.Surrogate.PredictWithGrad(x, dMean, dSD)
}

// PredictJoint implements surrogate.Surrogate.
func (c countedSurrogate) PredictJoint(xs [][]float64) (*surrogate.JointPrediction, error) {
	defer c.count(time.Now())
	return c.Surrogate.PredictJoint(xs)
}

// Fantasize implements surrogate.Surrogate.
func (c countedSurrogate) Fantasize(x []float64, y float64) (surrogate.Surrogate, error) {
	f, err := c.Surrogate.Fantasize(x, y)
	if err != nil {
		return nil, err
	}
	return wrapSurrogate(f, c.t), nil
}

// Feasibility implements acq.FeasibilityProvider. A nil model stays nil:
// it tells the acquisition layer to skip weighting.
func (f feasibleSurrogate) Feasibility() acq.FeasibilityModel {
	m := f.fp.Feasibility()
	if m == nil {
		return nil
	}
	return countedFeasibility{m, f.t}
}

type countedFeasibility struct {
	acq.FeasibilityModel
	t *tracer
}

// PoF implements acq.FeasibilityModel.
func (c countedFeasibility) PoF(x []float64) float64 {
	c.t.pofCalls.Add(1)
	return c.FeasibilityModel.PoF(x)
}

// PoFWithGrad implements acq.FeasibilityModel.
func (c countedFeasibility) PoFWithGrad(x, grad []float64) float64 {
	c.t.pofCalls.Add(1)
	return c.FeasibilityModel.PoFWithGrad(x, grad)
}

// ---- Problem.Evaluator ----

// tracedEvaluator times simulator calls. The engine's pool calls it from
// its own goroutines without a context, so the op it belongs to is fixed
// at wrap time.
type tracedEvaluator struct {
	inner parallel.Evaluator
	t     *tracer
	ref   spanRef
}

// Eval implements parallel.Evaluator.
func (e tracedEvaluator) Eval(x []float64) (float64, time.Duration) {
	sp := e.t.begin(e.ref.trace, e.ref.parent, "uphes.eval")
	y, cost := e.inner.Eval(x)
	sp = e.t.end(sp)
	e.t.evalNS.Add(int64(sp.dur()))
	e.t.evalCalls.Add(1)
	return y, cost
}

// ---- HTTP ----

const spanHeader = "X-Bench-Span"

// handler wraps serve.Server.Handler(): each request becomes a span
// parented under the client's request span named in spanHeader.
func (t *tracer) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ref := parseSpanHeader(r.Header.Get(spanHeader))
		sp := t.begin(ref.trace, ref.parent, "serve.handler "+routeOf(r))
		h.ServeHTTP(w, r)
		t.end(sp)
	})
}

// parseSpanHeader reads the "trace/parent" the transport stamped; a
// request without one, or with a malformed one, is a root span.
func parseSpanHeader(v string) spanRef {
	a, b, ok := strings.Cut(v, "/")
	if !ok {
		return spanRef{}
	}
	trace, err := strconv.ParseInt(a, 10, 64)
	if err != nil {
		return spanRef{}
	}
	parent, err := strconv.ParseInt(b, 10, 64)
	if err != nil {
		return spanRef{}
	}
	return spanRef{trace, parent}
}

// routeOf names the API route without the session ID.
func routeOf(r *http.Request) string {
	p := r.URL.Path
	if i := strings.LastIndexByte(p, '/'); i >= 0 && strings.HasPrefix(p, "/v1/sessions/") && strings.Count(p, "/") == 4 {
		return r.Method + " " + p[i+1:]
	}
	return r.Method + " session"
}

// transport stamps the caller's span onto outgoing requests.
type transport struct{ inner http.RoundTripper }

// RoundTrip implements http.RoundTripper.
func (tr transport) RoundTrip(r *http.Request) (*http.Response, error) {
	if ref := spanFrom(r.Context()); ref.trace != 0 {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, fmt.Sprintf("%d/%d", ref.trace, ref.parent))
	}
	return tr.inner.RoundTrip(r)
}
