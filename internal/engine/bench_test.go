package engine

import (
	"testing"

	"rmssd/internal/trace"
)

// hotTraceBatches builds a plain lookup engine and 64 single-inference
// batches of a K=2 locality trace (Fig. 14's least-local preset: a 30 % hot
// mass over a Zipf hot set).
func hotTraceBatches(tb testing.TB) (*LookupEngine, [][][]int64) {
	tb.Helper()
	cfg := smallRMC1()
	_, _, eng, _ := setupLookup(tb, cfg)
	tc, err := trace.Config{
		Tables: cfg.Tables, Rows: cfg.RowsPerTable, Lookups: cfg.Lookups, Seed: 7,
	}.WithLocality(2)
	if err != nil {
		tb.Fatal(err)
	}
	return eng, trace.MustNew(tc).Batch(64)
}

// BenchmarkLookupPoolHotTrace measures the steady host cost of one
// inference's pooled lookups through PoolBatch on the hot trace. One untimed
// call first sizes the engine's reusable per-batch scratch, a one-time cost
// that would otherwise be spread over b.N. Tracked in BENCH_simcore.json;
// TestPoolBatchHotTraceAllocs gates its allocs/op.
func BenchmarkLookupPoolHotTrace(b *testing.B) {
	eng, batches := hotTraceBatches(b)
	if _, _, err := eng.PoolBatch(0, batches[:1]); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.PoolBatch(0, batches[i%len(batches):][:1]); err != nil {
			b.Fatal(err)
		}
	}
}

// maxHotTraceAllocs is the allocation budget of one single-inference
// PoolBatch on the hot trace: the returned pooled vectors (their flat float
// array, the outer per-inference slice and the inference's per-table
// slice). The 640 vector reads allocate nothing: their bytes land in the
// engine's reused per-batch arena, and the device's path-buffer bookkeeping
// reuses its backing array.
const maxHotTraceAllocs = 3

// TestPoolBatchHotTraceAllocs pins the allocation cost of a single-inference
// PoolBatch on the hot trace, so a regression fails the tests instead of
// only showing in benchmark output.
func TestPoolBatchHotTraceAllocs(t *testing.T) {
	eng, batches := hotTraceBatches(t)
	i := 0
	allocs := testing.AllocsPerRun(len(batches), func() {
		if _, _, err := eng.PoolBatch(0, batches[i%len(batches):][:1]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > maxHotTraceAllocs {
		t.Fatalf("PoolBatch on the hot trace: %.0f allocs/op, want <= %d", allocs, maxHotTraceAllocs)
	}
}
