package strategy

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/parallel"
)

// detNow is a deterministic measured-time source: every call advances a
// virtual wall clock by exactly 1ms, so fit/acq durations — and therefore
// complete cycle records — are identical across independent runs.
func detNow() func() time.Time {
	t0 := time.Unix(0, 0)
	n := 0
	return func() time.Time {
		n++
		return t0.Add(time.Duration(n) * time.Millisecond)
	}
}

func checkpointEngine(s core.Strategy) *core.Engine {
	e := goldenEngine(s)
	e.Pool = &parallel.Pool{Overhead: parallel.LinearOverhead(100*time.Millisecond, 50*time.Millisecond)}
	return e
}

func runAskTellLoop(t *testing.T, e *core.Engine, at *core.AskTell, stopAfterTells int) (*core.Result, *core.Checkpoint) {
	t.Helper()
	ctx := context.Background()
	tells := 0
	for {
		b, err := at.Ask(ctx)
		if errors.Is(err, core.ErrDone) {
			return at.Result(), nil
		}
		if err != nil {
			t.Fatal(err)
		}
		br, err := e.Pool.EvalBatch(ctx, e.Problem.Evaluator, b.Points)
		if err != nil {
			t.Fatal(err)
		}
		if err := at.Tell(b.ID, br.Y, br.Costs); err != nil {
			t.Fatal(err)
		}
		tells++
		if stopAfterTells > 0 && tells == stopAfterTells {
			cp, err := at.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			return nil, cp
		}
	}
}

// TestStrategyKillAndResume is the per-strategy resume-determinism
// property for every paper strategy plus TS-RFF (the stateful
// ModelProvider): a run killed after the k-th tell and resumed from its
// checkpoint — through a JSON round-trip — must finish with a Result
// bit-identical to the uninterrupted reference, including the History
// (pinned by the injected deterministic clock). k=4 interrupts after the
// first cycle (fresh strategy state), k=5 after the second (evolved trust
// region / partition / hyper model).
func TestStrategyKillAndResume(t *testing.T) {
	strategies := append(allStrategies(), NewTSRFF())
	for _, s := range strategies {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			refEngine := checkpointEngine(mustByName(t, s.Name()))
			refAT, err := core.NewAskTell(refEngine)
			if err != nil {
				t.Fatal(err)
			}
			refAT.SetNow(detNow())
			ref, _ := runAskTellLoop(t, refEngine, refAT, 0)

			// 3 design waves + 3 cycles = 6 tells total.
			for _, k := range []int{4, 5} {
				e1 := checkpointEngine(mustByName(t, s.Name()))
				at1, err := core.NewAskTell(e1)
				if err != nil {
					t.Fatal(err)
				}
				at1.SetNow(detNow())
				_, cp := runAskTellLoop(t, e1, at1, k)

				data, err := json.Marshal(cp)
				if err != nil {
					t.Fatal(err)
				}
				var cp2 core.Checkpoint
				if err := json.Unmarshal(data, &cp2); err != nil {
					t.Fatal(err)
				}

				e2 := checkpointEngine(mustByName(t, s.Name()))
				at2, err := core.ResumeAskTell(e2, &cp2)
				if err != nil {
					t.Fatal(err)
				}
				at2.SetNow(detNow())
				got, _ := runAskTellLoop(t, e2, at2, 0)

				if !reflect.DeepEqual(ref, got) {
					t.Fatalf("resume after tell %d diverged from uninterrupted run:\nref %+v\ngot %+v", k, ref, got)
				}
			}
		})
	}
}

func mustByName(t *testing.T, name string) core.Strategy {
	t.Helper()
	s, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestStatefulStrategiesImplementCheckpointer pins the capability wiring:
// the strategies with cross-cycle state must expose the codec, and a fresh
// instance must round-trip its (empty and evolved) state.
func TestStatefulStrategiesImplementCheckpointer(t *testing.T) {
	for _, name := range []string{"TuRBO", "BSP-EGO", "TS-RFF"} {
		s := mustByName(t, name)
		if _, ok := s.(core.StrategyCheckpointer); !ok {
			t.Errorf("%s does not implement StrategyCheckpointer", name)
		}
	}
}

func TestTuRBOStateRoundTrip(t *testing.T) {
	s := NewTuRBO()
	s.length, s.succ, s.fail, s.haveState = 0.4, 2, 1, true

	data, err := s.StrategyState()
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewTuRBO()
	if err := s2.RestoreStrategyState(data); err != nil {
		t.Fatal(err)
	}
	//lint:ignore floatcmp restored trust-region length must be bit-identical
	if s2.length != s.length || s2.succ != s.succ || s2.fail != s.fail || s2.haveState != s.haveState {
		t.Fatalf("restored state %+v differs", s2)
	}

	for _, bad := range []string{`{`, `{"length": -1, "have_state": true}`, `{"length": 0.5, "succ": -1}`} {
		if err := NewTuRBO().RestoreStrategyState([]byte(bad)); err == nil {
			t.Errorf("malformed state %q accepted", bad)
		}
	}
}

func TestBSPEGOStateRoundTrip(t *testing.T) {
	p := sphereProblem()
	s := NewBSPEGO()
	s.initPartition(p.Lo, p.Hi, 4)
	// Evolve the geometry so the tree is not the balanced initial shape.
	s.leaves[0].split(p.Lo, p.Hi)
	s.refreshLeaves()

	data, err := s.StrategyState()
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewBSPEGO()
	if err := s2.RestoreStrategyState(data); err != nil {
		t.Fatal(err)
	}
	if len(s2.leaves) != len(s.leaves) {
		t.Fatalf("restored %d leaves, want %d", len(s2.leaves), len(s.leaves))
	}
	for i := range s.leaves {
		if !reflect.DeepEqual(s.leaves[i].lo, s2.leaves[i].lo) || !reflect.DeepEqual(s.leaves[i].hi, s2.leaves[i].hi) {
			t.Fatalf("leaf %d geometry differs", i)
		}
	}
	// Parent links must be intact: walking up from any leaf reaches root.
	for i, leaf := range s2.leaves {
		n := leaf
		for n.parent != nil {
			n = n.parent
		}
		if n != s2.root {
			t.Fatalf("leaf %d not rooted", i)
		}
	}

	// Empty state round-trips to an unpartitioned strategy.
	empty, err := NewBSPEGO().StrategyState()
	if err != nil {
		t.Fatal(err)
	}
	s3 := NewBSPEGO()
	s3.initPartition(p.Lo, p.Hi, 4)
	if err := s3.RestoreStrategyState(empty); err != nil {
		t.Fatal(err)
	}
	if s3.root != nil || s3.leaves != nil {
		t.Fatal("empty state did not clear the partition")
	}

	for _, bad := range []string{
		`{`,
		`{"root": {"lo": [0], "hi": []}}`,
		`{"root": {"lo": [0], "hi": [1], "left": {"lo": [0], "hi": [1]}}}`,
		`{"root": {"lo": [1], "hi": [0]}}`,
	} {
		if err := NewBSPEGO().RestoreStrategyState([]byte(bad)); err == nil {
			t.Errorf("malformed state %q accepted", bad)
		}
	}
}

func TestTSRFFStateRoundTrip(t *testing.T) {
	p := sphereProblem()
	m, st := fitState(t, p, 12)
	_ = st

	s := NewTSRFF()
	s.hyperGP = m
	data, err := s.StrategyState()
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewTSRFF()
	if err := s2.RestoreStrategyState(data); err != nil {
		t.Fatal(err)
	}
	if s2.hyperGP == nil {
		t.Fatal("hyper model not restored")
	}
	wp, gp2 := m.Hyperparameters(), s2.hyperGP.Hyperparameters()
	for i := range wp {
		//lint:ignore floatcmp restored hyperparameters must be bit-identical
		if wp[i] != gp2[i] {
			t.Fatalf("hyperparameter %d differs: %v vs %v", i, wp[i], gp2[i])
		}
	}

	// Nil hyper model round-trips to nil.
	empty, err := NewTSRFF().StrategyState()
	if err != nil {
		t.Fatal(err)
	}
	s3 := NewTSRFF()
	s3.hyperGP = m
	if err := s3.RestoreStrategyState(empty); err != nil {
		t.Fatal(err)
	}
	if s3.hyperGP != nil {
		t.Fatal("empty state did not clear the hyper model")
	}

	if err := NewTSRFF().RestoreStrategyState([]byte(`{"hyper": {"config": {}}}`)); err == nil {
		t.Error("malformed hyper state accepted")
	}
}
