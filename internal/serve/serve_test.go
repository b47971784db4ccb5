package serve

import (
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/session"
)

// testSpecs are four concurrent workloads: the paper's UPHES simulator
// plus three synthetic benchmarks, all sized to finish in seconds.
func testSpecs() []SessionSpec {
	model := ModelSpec{Restarts: 1, MaxIter: 10, FitSubsetMax: 48}
	base := SessionSpec{
		Strategy:       "KB-q-EGO",
		BatchSize:      2,
		InitSamples:    6,
		MaxCycles:      2,
		BudgetNS:       int64(time.Hour),
		OverheadFactor: 1,
		Model:          model,
		Seed:           11,
	}
	uphesSpec := base
	uphesSpec.ID = "uphes-run"
	uphesSpec.Problem = ProblemSpec{Kind: "uphes"}
	uphesSpec.InitSamples = 8

	rast := base
	rast.ID = "rastrigin-run"
	rast.Strategy = "TuRBO"
	rast.Problem = ProblemSpec{Kind: "benchmark", Name: "rastrigin", Dim: 2}

	ack := base
	ack.ID = "ackley-run"
	ack.Strategy = "BSP-EGO"
	ack.Problem = ProblemSpec{Kind: "benchmark", Name: "ackley", Dim: 2}

	levy := base
	levy.ID = "levy-run"
	levy.Problem = ProblemSpec{Kind: "benchmark", Name: "levy", Dim: 2}
	levy.Seed = 12

	return []SessionSpec{uphesSpec, rast, ack, levy}
}

// referenceResult runs the spec's engine in-process, closed-loop.
func referenceResult(t *testing.T, spec SessionSpec) *core.Result {
	t.Helper()
	eng, err := spec.Engine()
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// driveOverHTTP runs one session to completion through the client:
// members are evaluated by a bounded worker pool and told back
// individually and concurrently, the way remote workers would.
func driveOverHTTP(ctx context.Context, t *testing.T, c *Client, spec SessionSpec) *core.Result {
	eng, err := spec.Engine()
	if err != nil {
		t.Errorf("%s: %v", spec.ID, err)
		return nil
	}
	ev := eng.Problem.Evaluator
	for {
		b, done, err := c.Ask(ctx, spec.ID)
		if err != nil {
			t.Errorf("%s: ask: %v", spec.ID, err)
			return nil
		}
		if done {
			res, err := c.Result(ctx, spec.ID)
			if err != nil {
				t.Errorf("%s: result: %v", spec.ID, err)
				return nil
			}
			return res
		}
		if err := tellBatch(ctx, c, spec.ID, ev, b); err != nil {
			t.Errorf("%s: %v", spec.ID, err)
			return nil
		}
	}
}

// tellBatch evaluates every member of b with a 2-worker pool and tells
// each result in its own HTTP request, concurrently.
func tellBatch(ctx context.Context, c *Client, id string, ev parallel.Evaluator, b *core.Batch) error {
	errs := make([]error, len(b.Points))
	ferr := parallel.ForEach(ctx, 2, len(b.Points), func(m int) {
		y, cost := ev.Eval(b.Points[m])
		_, err := c.Tell(ctx, id, []session.EvalResult{{
			BatchID: b.ID, Member: m, Y: y, CostNS: int64(cost),
		}})
		errs[m] = err
	})
	if ferr != nil {
		return ferr
	}
	return errors.Join(errs...)
}

// assertMatchesReference compares the HTTP-driven run to the in-process
// closed loop on every deterministic field: the full evaluation trace,
// the incumbent and the counters must be identical (trace floats crossed
// a JSON round trip, which Go guarantees is exact). Virtual time is only
// checked loosely: it folds in measured wall-clock fit/acquisition time,
// which legitimately varies between runs — the simulated evaluation time
// (10 s per cycle here) must dominate and agree, the sub-ms algorithm
// time may not. Bit-exact virtual-clock replay is pinned at the session
// layer, where tests inject a deterministic clock.
func assertMatchesReference(t *testing.T, id string, ref, got *core.Result) {
	t.Helper()
	if got == nil {
		return // driveOverHTTP already reported the failure
	}
	if !reflect.DeepEqual(ref.X, got.X) || !reflect.DeepEqual(ref.Y, got.Y) {
		t.Errorf("%s: evaluation trace diverged from closed-loop run", id)
	}
	if !reflect.DeepEqual(ref.BestX, got.BestX) {
		t.Errorf("%s: best point %v, want %v", id, got.BestX, ref.BestX)
	}
	//lint:ignore floatcmp incumbents must match exactly, both traces are bit-deterministic
	if got.BestY != ref.BestY {
		t.Errorf("%s: best value %v, want %v", id, got.BestY, ref.BestY)
	}
	if got.Cycles != ref.Cycles || got.Evals != ref.Evals || got.InitEvals != ref.InitEvals {
		t.Errorf("%s: counters (%d,%d,%d), want (%d,%d,%d)", id,
			got.Cycles, got.Evals, got.InitEvals, ref.Cycles, ref.Evals, ref.InitEvals)
	}
	if d := got.Virtual - ref.Virtual; math.Abs(d.Seconds()) > 0.5 {
		t.Errorf("%s: virtual time %v, want %v", id, got.Virtual, ref.Virtual)
	}
	if len(got.History) != len(ref.History) {
		t.Fatalf("%s: %d cycle records, want %d", id, len(got.History), len(ref.History))
	}
	for i, h := range got.History {
		r := ref.History[i]
		bad := h.Cycle != r.Cycle || h.Evals != r.Evals || h.Fallback != r.Fallback
		//lint:ignore floatcmp per-cycle incumbents must match exactly
		bad = bad || h.BestY != r.BestY
		bad = bad || math.Abs((h.Virtual-r.Virtual).Seconds()) > 0.5
		if bad {
			t.Errorf("%s: cycle record %d = %+v, want %+v", id, i, h, r)
		}
	}
}

// TestServerConcurrentSessions drives four sessions — UPHES plus three
// benchmarks, three different strategies — concurrently over loopback
// HTTP, each with its own concurrent worker pool, and requires every
// final result to match the in-process closed-loop run.
func TestServerConcurrentSessions(t *testing.T) {
	specs := testSpecs()
	refs := make([]*core.Result, len(specs))
	for i, spec := range specs {
		refs[i] = referenceResult(t, spec)
	}

	srv := &Server{SnapRoot: filepath.Join(t.TempDir(), "snaps")}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := &Client{BaseURL: ts.URL}

	ctx := context.Background()
	got := make([]*core.Result, len(specs))
	if err := parallel.ForEach(ctx, len(specs), len(specs), func(i int) {
		if _, err := c.Create(ctx, specs[i]); err != nil {
			t.Errorf("%s: create: %v", specs[i].ID, err)
			return
		}
		got[i] = driveOverHTTP(ctx, t, c, specs[i])
	}); err != nil {
		t.Fatal(err)
	}
	for i, spec := range specs {
		assertMatchesReference(t, spec.ID, refs[i], got[i])
	}

	ids, err := listSessions(ctx, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(specs) {
		t.Fatalf("listed %d sessions, want %d: %v", len(ids), len(specs), ids)
	}
	st, err := c.Status(ctx, "uphes-run")
	if err != nil {
		t.Fatal(err)
	}
	if !st.Done || st.Problem != "uphes" || len(st.Pending) != 0 {
		t.Fatalf("uphes status %+v", st)
	}
	snaps, err := snapshotNames(ctx, c, "uphes-run")
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no snapshots persisted for uphes-run")
	}
}

// TestServerKillAndResume simulates a server crash: drive a session
// partway (with a partially-told batch in flight), discard the Server,
// bring up a fresh one over the same snapshot root, resume over HTTP,
// drain the pending work and finish. The result must match the
// uninterrupted closed loop.
func TestServerKillAndResume(t *testing.T) {
	spec := testSpecs()[1] // TuRBO on rastrigin
	ref := referenceResult(t, spec)
	root := filepath.Join(t.TempDir(), "snaps")
	ctx := context.Background()

	srv1 := &Server{SnapRoot: root}
	ts1 := httptest.NewServer(srv1.Handler())
	c1 := &Client{BaseURL: ts1.URL}
	if _, err := c1.Create(ctx, spec); err != nil {
		t.Fatal(err)
	}
	eng, err := spec.Engine()
	if err != nil {
		t.Fatal(err)
	}
	ev := eng.Problem.Evaluator
	// Complete the design and cycle 1, then ask the cycle-2 batch and
	// tell only its first member before the "crash".
	for i := 0; i < 4; i++ {
		b, done, err := c1.Ask(ctx, spec.ID)
		if err != nil || done {
			t.Fatalf("ask %d: done=%v err=%v", i, done, err)
		}
		if err := tellBatch(ctx, c1, spec.ID, ev, b); err != nil {
			t.Fatal(err)
		}
	}
	b, done, err := c1.Ask(ctx, spec.ID)
	if err != nil || done {
		t.Fatalf("ask: done=%v err=%v", done, err)
	}
	y, cost := ev.Eval(b.Points[0])
	if _, err := c1.Tell(ctx, spec.ID, []session.EvalResult{{BatchID: b.ID, Member: 0, Y: y, CostNS: int64(cost)}}); err != nil {
		t.Fatal(err)
	}
	ts1.Close() // the crash: srv1 and its sessions are gone

	srv2 := &Server{SnapRoot: root}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	c2 := &Client{BaseURL: ts2.URL}
	if _, err := c2.Status(ctx, spec.ID); err == nil {
		t.Fatal("fresh server knows the session before resume")
	}
	st, err := c2.Resume(ctx, spec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Pending) != 1 || st.Pending[0].Received != 1 {
		t.Fatalf("resumed pending ledger %+v, want one batch with one received member", st.Pending)
	}
	// Recovery protocol: fetch the in-flight work and tell the members
	// whose results died with the old server.
	pws, err := c2.PendingWork(ctx, spec.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, pw := range pws {
		for m, x := range pw.Batch.Points {
			if pw.Received[m] {
				continue
			}
			y, cost := ev.Eval(x)
			if _, err := c2.Tell(ctx, spec.ID, []session.EvalResult{{
				BatchID: pw.Batch.ID, Member: m, Y: y, CostNS: int64(cost),
			}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	got := driveOverHTTP(ctx, t, c2, spec)
	assertMatchesReference(t, spec.ID, ref, got)
}

// TestServerAPIErrors pins the error contract: status codes and
// all-or-nothing tell validation over the wire.
func TestServerAPIErrors(t *testing.T) {
	srv := &Server{}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := &Client{BaseURL: ts.URL}
	ctx := context.Background()

	if _, err := c.Status(ctx, "ghost"); err == nil {
		t.Error("status of unknown session succeeded")
	}
	if _, _, err := c.Ask(ctx, "ghost"); err == nil {
		t.Error("ask of unknown session succeeded")
	}
	bad := testSpecs()[3]
	bad.ID = "no/slashes"
	if _, err := c.Create(ctx, bad); err == nil {
		t.Error("invalid session id accepted")
	}
	bad.ID = "bad-strategy"
	bad.Strategy = "definitely-not-a-strategy"
	if _, err := c.Create(ctx, bad); err == nil {
		t.Error("unknown strategy accepted")
	}

	spec := testSpecs()[3]
	if _, err := c.Create(ctx, spec); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Create(ctx, spec); !errorContains(err, "already exists") {
		t.Errorf("duplicate create: %v", err)
	}

	// Exhaust the design waves without telling: the next ask must map
	// core.ErrNoBatchReady to HTTP 409 / ErrNotReady.
	waves := spec.InitSamples / spec.BatchSize
	batches := make([]*core.Batch, 0, waves)
	for i := 0; i < waves; i++ {
		b, done, err := c.Ask(ctx, spec.ID)
		if err != nil || done {
			t.Fatalf("design ask %d: done=%v err=%v", i, done, err)
		}
		batches = append(batches, b)
	}
	if _, _, err := c.Ask(ctx, spec.ID); !errors.Is(err, ErrNotReady) {
		t.Errorf("ask with outstanding design: %v, want ErrNotReady", err)
	}

	// A tell mixing one valid and one out-of-range member is rejected
	// whole: the valid member must still be tellable afterwards.
	b := batches[0]
	if _, err := c.Tell(ctx, spec.ID, []session.EvalResult{
		{BatchID: b.ID, Member: 0, Y: 1},
		{BatchID: b.ID, Member: len(b.Points), Y: 1},
	}); err == nil {
		t.Error("tell with out-of-range member accepted")
	}
	if _, err := c.Tell(ctx, spec.ID, []session.EvalResult{{BatchID: b.ID, Member: 0, Y: 1}}); err != nil {
		t.Errorf("valid member rejected after failed group tell: %v", err)
	}
}

func errorContains(err error, sub string) bool {
	return err != nil && strings.Contains(err.Error(), sub)
}

// TestServerCreateRefusesPersistedSpec: a Create whose snapshot directory
// already holds a persisted spec — a previous process's run — must refuse
// with ErrExists rather than silently overwrite it, and the persisted
// session must remain resumable afterwards.
func TestServerCreateRefusesPersistedSpec(t *testing.T) {
	root := filepath.Join(t.TempDir(), "snaps")
	spec := testSpecs()[3]
	if _, err := (&Server{SnapRoot: root}).Create(spec); err != nil {
		t.Fatal(err)
	}

	// A fresh server over the same root (the restarted process) knows
	// nothing about the session in memory — only the spec on disk.
	srv2 := &Server{SnapRoot: root}
	if _, err := srv2.Create(spec); !errors.Is(err, ErrExists) {
		t.Fatalf("create over persisted session: %v, want ErrExists", err)
	}
	if _, err := srv2.Resume(spec.ID); err != nil {
		t.Fatalf("resume after refused create: %v", err)
	}
}

// listSessions returns the live session IDs through GET /v1/sessions.
func listSessions(ctx context.Context, c *Client) ([]string, error) {
	var ids []string
	err := c.do(ctx, http.MethodGet, "/v1/sessions", nil, &ids)
	return ids, err
}

// snapshotNames lists a session's snapshot file names, oldest first,
// through GET /v1/sessions/{id}/snapshots.
func snapshotNames(ctx context.Context, c *Client, id string) ([]string, error) {
	var names []string
	err := c.do(ctx, http.MethodGet, "/v1/sessions/"+id+"/snapshots", nil, &names)
	return names, err
}
