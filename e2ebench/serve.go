package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/benchfunc"
	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/session"
	"repro/internal/session/snapshot"
)

// serve-design drives pboserver over loopback: nproc closed-loop clients
// each create a session, walk its initial design with ask → evaluate →
// tell round trips, and evict it. Design asks fit no model, so the time
// goes to the HTTP handlers, the session layer and the engine's
// bookkeeping — layers paper-q4 and fleet-year never touch.
//
// The served sessions run without a snapshot store. Snapshots must stay
// inside the checkout, and on its disk every round trip waits for two
// fsyncs: on a 2-core host the same run gave 390–620 round trips/s from
// one run to the next, against 1,725–1,840 with the store on tmpfs. That
// measures the disk, not the program. Snapshots are priced in-process
// instead: every run checks stored sessions' snapshot counts, and the
// traced run times encoding and a stored round trip against a store-less
// one.
const (
	serveFunc = "ackley"
	serveDim  = 12
	serveQ    = 4
	serveInit = 256
	// serveWaves is the number of round trips in one session's design.
	serveWaves = serveInit / serveQ
	// serveStored is how many sessions every run drives in-process with a
	// snapshot store to check the snapshot counts; the traced run drives
	// as many again without a store to price a save.
	serveStored = 4
	// serveSegments is how many stretches of the measuring time the
	// throughput median is taken over.
	serveSegments = 10
)

type serveDesign struct {
	seed    uint64
	t       *tracer
	snapDir string
	ts      *httptest.Server
	client  *serve.Client
	fn      benchfunc.Function
}

func (w *serveDesign) spec(client, j int) serve.SessionSpec {
	return serve.SessionSpec{
		ID:          fmt.Sprintf("c%d-s%d", client, j),
		Problem:     serve.ProblemSpec{Kind: "benchmark", Name: serveFunc, Dim: serveDim},
		Strategy:    "mic-q-EGO",
		BatchSize:   serveQ,
		InitSamples: serveInit,
		Seed:        rng.New(w.seed, uint64(client+1)<<32|uint64(j)).Uint64(),
	}
}

func (w *serveDesign) setup(seed uint64, t *tracer) error {
	w.seed, w.t = seed, t
	fn, err := benchfunc.ByName(serveFunc, serveDim)
	if err != nil {
		return err
	}
	w.fn = fn
	// Snapshots stay inside the checkout, one directory per process.
	w.snapDir, err = filepath.Abs(filepath.Join(outDir(), "snap", fmt.Sprint(os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(w.snapDir, 0o755); err != nil {
		return err
	}
	srv := &serve.Server{}
	h := srv.Handler()
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = 64
	var rt http.RoundTripper = tr
	if t != nil {
		h = t.handler(h)
		rt = transport{tr}
	}
	// httptest.Server is a plain loopback http.Server on 127.0.0.1.
	w.ts = httptest.NewServer(h)
	w.client = &serve.Client{BaseURL: w.ts.URL, HTTPClient: &http.Client{Transport: rt}}
	return nil
}

func (w *serveDesign) close() error {
	if w.ts != nil {
		w.ts.Close()
	}
	if w.snapDir == "" {
		return nil
	}
	return os.RemoveAll(w.snapDir)
}

// sessionRun is what one client saw of one session.
type sessionRun struct {
	client, j  int
	designHash string
	latencies  []float64 // ms per round trip
	speed      float64   // hostSpeed of the stretch the session ran in
	asks       int
	tells      int
	metrics    session.Metrics
	status     session.Status
	err        error
}

func (w *serveDesign) run(ctx context.Context, d time.Duration) (*childResult, error) {
	clients := runtime.GOMAXPROCS(0)
	// The measuring time is cut into serveSegments stretches, bracketed
	// by host-speed probes while the clients pause; the mean of a
	// stretch's two probes scales its rate and latencies (see probe.go).
	// Throughput is the median stretch, so that a burst of load from
	// outside the benchmark that slows one or two does not move it.
	runs := make([][]*sessionRun, clients)
	var raw, scaled, speeds []float64
	var wall time.Duration
	before := hostSpeed()
	for range serveSegments {
		marks := make([]int, clients)
		for c := range runs {
			marks[c] = len(runs[c])
		}
		start := time.Now()
		if err := parallel.ForEach(ctx, clients, clients, func(c int) {
			for first := true; first || time.Since(start) < d/serveSegments; first = false {
				runs[c] = append(runs[c], w.session(ctx, c, len(runs[c])))
			}
		}); err != nil {
			return nil, err
		}
		seg := time.Since(start)
		wall += seg
		after := hostSpeed()
		speed := (before + after) / 2
		before = after
		count := 0
		for c := range runs {
			for _, s := range runs[c][marks[c]:] {
				s.speed = speed
				count += len(s.latencies)
			}
		}
		rate := float64(count) / seg.Seconds()
		raw = append(raw, rate)
		scaled = append(scaled, rate/speed)
		speeds = append(speeds, speed)
	}
	rss := peakRSSKB()

	out := &childResult{MaxRSSKB: rss, Figures: map[string]float64{}, Fingerprints: map[string]string{}, Params: map[string]any{
		"function": serveFunc, "dim": serveDim, "q": serveQ, "init_samples": serveInit, "clients": clients, "seed": w.seed,
	}}
	var all []*sessionRun
	for _, r := range runs {
		all = append(all, r...)
	}
	roundTrips, refMismatch, countMismatch := 0, 0, 0
	var rawLat []float64
	var firstErr error
	for _, s := range all {
		out.Attempted += s.asks
		roundTrips += len(s.latencies)
		for _, l := range s.latencies {
			out.OpLatencyMS = append(out.OpLatencyMS, l*s.speed)
			rawLat = append(rawLat, l)
		}
		if s.err != nil {
			out.Failed += s.asks - len(s.latencies)
			if firstErr == nil {
				firstErr = s.err
			}
			continue
		}
		ref, err := w.referenceDesign(s.client, s.j)
		if err != nil || ref != s.designHash {
			refMismatch++
		}
		// Metrics.Tells counts told members; a store-less session takes
		// no snapshots.
		m := s.metrics
		if m.Snapshots != 0 || m.Asks != int64(s.asks) || m.Tells != int64(serveQ*s.tells) ||
			s.status.Evals != serveInit || s.status.InitEvals != serveInit {
			countMismatch++
		}
		out.Fingerprints[w.spec(s.client, s.j).ID] = s.designHash
	}
	out.OpsPerS = median(scaled)
	out.Samples = map[string][]float64{"segment_roundtrips_per_s_raw": raw, "host_speed": speeds}
	out.Figures["wall_s"] = wall.Seconds()
	out.Figures["host_speed"] = median(speeds)
	lat, rawSorted := sortedCopy(out.OpLatencyMS), sortedCopy(rawLat)
	out.Figures["roundtrips_per_s"] = out.OpsPerS
	out.Figures["roundtrip_p50_ms"] = percentile(lat, 50)
	out.Figures["roundtrip_p90_ms"] = percentile(lat, 90)
	out.Figures["roundtrips_per_s_raw"] = median(raw)
	out.Figures["roundtrip_p50_ms_raw"] = percentile(rawSorted, 50)
	out.Figures["roundtrip_p90_ms_raw"] = percentile(rawSorted, 90)
	out.Figures["sessions"] = float64(len(all))
	out.Checks = []check{
		checkf(firstErr == nil, "every ask and tell accepted", "%d failed round trips, first: %v", out.Failed, firstErr),
		checkf(refMismatch == 0, "server design equals core.NewAskTell's", "%d of %d sessions differ", refMismatch, len(all)),
		checkf(countMismatch == 0, "asks, tells and evals counted, design complete", "%d of %d sessions off", countMismatch, len(all)),
	}
	stored, err := w.storedSessions(ctx)
	if err != nil {
		return nil, err
	}
	out.Checks = append(out.Checks, stored.check())
	if w.t != nil {
		layers, err := w.layers(ctx, roundTrips, stored)
		if err != nil {
			return nil, err
		}
		out.Layers = layers
	}
	return out, nil
}

// session drives one session's design phase over HTTP.
func (w *serveDesign) session(ctx context.Context, c, j int) *sessionRun {
	s := &sessionRun{client: c, j: j}
	spec := w.spec(c, j)
	if _, err := w.client.Create(ctx, spec); err != nil {
		s.err = err
		return s
	}
	h := newHash64()
	for k := range serveWaves {
		var rt span
		rctx := ctx
		if w.t != nil {
			rt = w.t.begin(w.opID(c, j, k), 0, "serve.roundtrip")
		}
		t0 := time.Now()
		s.asks++
		var askSpan span
		if w.t != nil {
			askSpan = w.t.begin(rt.Trace, rt.ID, "client.ask")
			rctx = withSpan(ctx, askSpan)
		}
		b, done, err := w.client.Ask(rctx, spec.ID)
		if w.t != nil {
			w.t.end(askSpan)
		}
		if err == nil && (done || b == nil || b.Cycle != 0) {
			err = fmt.Errorf("ask %d: expected a design wave", k)
		}
		if err != nil {
			s.err = err
			return s
		}
		results := make([]session.EvalResult, len(b.Points))
		for i, x := range b.Points {
			h.floats(x)
			results[i] = session.EvalResult{BatchID: b.ID, Member: i, Y: w.fn.Eval(x), CostNS: int64(10 * time.Second)}
		}
		var tellSpan span
		if w.t != nil {
			tellSpan = w.t.begin(rt.Trace, rt.ID, "client.tell")
			rctx = withSpan(ctx, tellSpan)
		}
		st, err := w.client.Tell(rctx, spec.ID, results)
		if w.t != nil {
			w.t.end(tellSpan)
			w.t.end(rt)
		}
		if err != nil {
			s.err = err
			return s
		}
		s.tells++
		s.status = st
		s.latencies = append(s.latencies, ms(time.Since(t0)))
	}
	s.designHash = h.String()
	m, err := w.client.Metrics(ctx, spec.ID)
	if err != nil {
		s.err = err
		return s
	}
	s.metrics = m
	if err := w.client.Evict(ctx, spec.ID); err != nil {
		s.err = err
	}
	return s
}

func (w *serveDesign) opID(c, j, k int) int64 {
	return (int64(c)<<40 | int64(j)<<16 | int64(k)) + 1
}

// referenceDesign asks a fresh in-process core.AskTell built from the same
// spec for the whole design and hashes it as the client hashed the
// server's.
func (w *serveDesign) referenceDesign(c, j int) (string, error) {
	spec := w.spec(c, j)
	eng, err := spec.Engine()
	if err != nil {
		return "", err
	}
	at, err := core.NewAskTell(eng)
	if err != nil {
		return "", err
	}
	h := newHash64()
	for range serveWaves {
		b, err := at.Ask(context.Background())
		if err != nil {
			return "", err
		}
		for _, x := range b.Points {
			h.floats(x)
		}
	}
	return h.String(), nil
}

// inprocRun is one in-process session's design walk.
type inprocRun struct {
	rt, ask, tell, encode time.Duration // totals over the design
	asks, tells           int
	metrics               session.Metrics
	designHash, refHash   string
}

// inproc drives one session's design through the session package
// directly, with or without a snapshot store. With encode set it also
// encodes a snapshot frame after every tell (Export writes nothing
// without a store), outside the round-trip time.
func (w *serveDesign) inproc(ctx context.Context, j int, store, encode bool) (*inprocRun, error) {
	spec := w.spec(-1, j)
	eng, err := spec.Engine()
	if err != nil {
		return nil, err
	}
	cfg := session.Config{ID: spec.ID, Engine: eng}
	if store {
		cfg.Store = &snapshot.Store{Dir: filepath.Join(w.snapDir, spec.ID)}
	}
	s, err := session.New(cfg)
	if err != nil {
		return nil, err
	}
	r := &inprocRun{}
	h := newHash64()
	for range serveWaves {
		t0 := time.Now()
		b, err := s.Ask(ctx)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		r.asks++
		results := make([]session.EvalResult, len(b.Points))
		for i, x := range b.Points {
			h.floats(x)
			results[i] = session.EvalResult{BatchID: b.ID, Member: i, Y: w.fn.Eval(x), CostNS: int64(10 * time.Second)}
		}
		t2 := time.Now()
		if err := s.Tell(ctx, results); err != nil {
			return nil, err
		}
		t3 := time.Now()
		r.tells++
		r.rt += t3.Sub(t0)
		r.ask += t1.Sub(t0)
		r.tell += t3.Sub(t2)
		if encode {
			if _, err := s.Export(); err != nil {
				return nil, err
			}
			r.encode += time.Since(t3)
		}
	}
	r.metrics = s.Metrics()
	r.designHash = h.String()
	if r.refHash, err = w.referenceDesign(-1, j); err != nil {
		return nil, err
	}
	return r, nil
}

type inprocRuns []*inprocRun

// storedSessions walks serveStored designs in-process with a snapshot
// store.
func (w *serveDesign) storedSessions(ctx context.Context) (inprocRuns, error) {
	var runs inprocRuns
	for j := range serveStored {
		r, err := w.inproc(ctx, 2*j, true, false)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	return runs, nil
}

// check asserts the snapshot accounting of stored sessions: session.New
// writes one snapshot and every ask and every tell one more.
func (rs inprocRuns) check() check {
	off := 0
	for _, r := range rs {
		if r.metrics.Snapshots != 1+int64(r.asks+r.tells) || r.designHash != r.refHash {
			off++
		}
	}
	return checkf(off == 0, "stored sessions: snapshots = 1 + asks + tells, design equals core.NewAskTell's",
		"%d of %d sessions off", off, len(rs))
}

func (w *serveDesign) layers(ctx context.Context, roundTrips int, stored inprocRuns) (map[string]float64, error) {
	spans := w.t.snapshot()
	// Pair each client request with the handler span it caused.
	handlerOf := map[int64]time.Duration{}
	var handler time.Duration
	handled := 0
	for _, s := range spans {
		if s.Name == "serve.handler POST ask" || s.Name == "serve.handler POST tell" {
			handlerOf[s.Parent] += s.dur()
			handler += s.dur()
			handled++
		}
	}
	var transport time.Duration
	for _, s := range spans {
		if s.Name == "client.ask" || s.Name == "client.tell" {
			h, ok := handlerOf[s.ID]
			if !ok {
				return nil, errors.New("a client request has no handler span")
			}
			transport += s.dur() - h
		}
	}
	var withStore, without, ask, tell, encode time.Duration
	var snaps, snapBytes int64
	for j, r := range stored {
		withStore += r.rt
		snaps += r.metrics.Snapshots
		snapBytes += r.metrics.SnapshotBytes
		bare, err := w.inproc(ctx, 2*j+1, false, true)
		if err != nil {
			return nil, err
		}
		without += bare.rt
		ask += bare.ask
		tell += bare.tell
		encode += bare.encode
	}
	n := float64(roundTrips)
	inproc := float64(len(stored) * serveWaves)
	return map[string]float64{
		"trace.ops":                       n,
		"serve.handler_ms":                ms(handler) / float64(max(handled, 1)),
		"serve.transport_ms":              ms(transport) / n,
		"session.roundtrip_ms":            ms(withStore) / inproc,
		"session.roundtrip_nostore_ms":    ms(without) / inproc,
		"snapshot.save_ms":                ms(withStore-without) / inproc / 2,
		"snapshot.encode_ms":              ms(encode) / inproc,
		"snapshot.bytes_per_save":         float64(snapBytes) / float64(max(snaps, 1)),
		"session.snapshots_per_roundtrip": float64(snaps) / inproc,
		"core.ask_self_ms":                ms(ask) / inproc,
		"core.tell_ms":                    ms(tell) / inproc,
	}, nil
}
