package sim

import "testing"

// BenchmarkEventScheduleFire measures the kernel's hot loop: schedule one
// event and fire it. This is the path every simulated action takes, so
// allocs/op here multiply by tens of millions in a large run.
func BenchmarkEventScheduleFire(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(1, fn)
		e.Step()
	}
}

// BenchmarkEventScheduleCancel measures the schedule-then-cancel cycle:
// the fate of every hedge timer, idle-shutdown timer and keep-alive expiry
// that never fires.
func BenchmarkEventScheduleCancel(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := e.After(1, fn)
		e.Cancel(ev)
	}
}

// BenchmarkEventChurn1k measures schedule+fire with 1024 events always
// pending, so the sift paths work at realistic heap depth instead of the
// trivial one-element case.
func BenchmarkEventChurn1k(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 1024; i++ {
		e.After(Duration(1+i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(2048, fn)
		e.Step()
	}
}

// BenchmarkResourceAcquireRelease measures one unit changing hands twice
// on a single-server resource: an immediate grant, a queued request, both
// dispatches and both releases. Every device CPU, edge core, serverless
// concurrency slot and serialised radio goes through this cycle.
func BenchmarkResourceAcquireRelease(b *testing.B) {
	e := NewEngine()
	r := NewResource(e, "cpu", 1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Acquire(fn)
		r.Acquire(fn)
		e.Step()
		r.Release()
		e.Step()
		r.Release()
	}
}
