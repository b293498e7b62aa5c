package health

import "testing"

// disableForTest uninstalls any recorder and restores it afterwards.
func disableForTest(tb testing.TB) {
	tb.Helper()
	prev := Active()
	active.Store(nil)
	tb.Cleanup(func() { active.Store(prev) })
}

func BenchmarkPoll(b *testing.B) {
	r, err := New(Options{
		Rules: []Rule{},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Poll()
	}
}
