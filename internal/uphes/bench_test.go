package uphes

import "testing"

// BenchmarkSimulateDay times one realized day, the scenario engine's
// unit of simulation: seeded schedules cycled over the fixture's start
// states (including the empty, full and unsafe-head corners) under one
// realized day of inputs.
func BenchmarkSimulateDay(b *testing.B) {
	cfg := DefaultConfig()
	sim, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	xs := bitsSchedules(&cfg, 16)
	starts := bitsStarts(&cfg.Plant)
	in := testDayInput(&cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.SimulateDay(xs[i%len(xs)], starts[i%len(starts)], in)
	}
}
