package main

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
)

func TestCyclesInBudgetInterpolatesTheStraddlingCycle(t *testing.T) {
	h := []core.CycleRecord{{Virtual: 100}, {Virtual: 250}, {Virtual: 400}, {Virtual: 700}}
	for _, c := range []struct {
		budget time.Duration
		want   float64
	}{
		{50, 0.5}, {400, 3}, {600, 3 + 200.0/300}, {700, 4}, {900, 4},
	} {
		if got := cyclesInBudget(h, c.budget); got != c.want {
			t.Errorf("budget %d: %v cycles, want %v", c.budget, got, c.want)
		}
	}
}

// fakeRun builds a result whose first paperPrefix cycles are identical
// and whose later cycles depend on how far the budget reached.
func fakeRun(cycles int) (*core.Result, []cycleTiming) {
	res := &core.Result{InitEvals: paperInit, Cycles: cycles, Y: make([]float64, paperInit+paperQ*cycles)}
	var timings []cycleTiming
	var v time.Duration
	for i := range cycles {
		op := time.Duration(10+i) * time.Millisecond
		if i >= paperPrefix {
			op = time.Second // late cycles at large n are slow
		}
		v += 10*time.Second + 6*op
		res.History = append(res.History, core.CycleRecord{Cycle: i + 1, Virtual: v, FitTime: 6 * op / 2})
		timings = append(timings, cycleTiming{op: op, ask: op, calls: counters{predictCalls: int64(100 * (i + 1))}})
	}
	return res, timings
}

func TestPerCycleFiguresUseOnlyTheFixedPrefix(t *testing.T) {
	shortRes, short := fakeRun(paperPrefix + 2)
	longRes, long := fakeRun(paperPrefix + 9)
	a, b := paperSummary(shortRes, short), paperSummary(longRes, long)
	if !reflect.DeepEqual(a.OpLatencyMS, b.OpLatencyMS) || len(a.OpLatencyMS) != paperPrefix {
		t.Errorf("prefix latencies differ with the cycles run: %d vs %d samples", len(a.OpLatencyMS), len(b.OpLatencyMS))
	}
	if a.Figures["cycles_in_budget"] == b.Figures["cycles_in_budget"] {
		t.Error("the budget count should see every cycle run")
	}
	la, lb := paperLayers(shortRes, short[:paperPrefix]), paperLayers(longRes, long[:paperPrefix])
	if !reflect.DeepEqual(la, lb) {
		t.Errorf("prefix layer figures differ with the cycles run:\n%v\n%v", la, lb)
	}
}
