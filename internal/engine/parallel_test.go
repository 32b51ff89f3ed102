package engine

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"rmssd/internal/embedding"
	"rmssd/internal/evcache"
	"rmssd/internal/flash"
	"rmssd/internal/model"
	"rmssd/internal/params"
	"rmssd/internal/sim"
	"rmssd/internal/ssd"
	"rmssd/internal/tensor"
)

// buildSparse generates a deterministic pseudo-random lookup batch.
func buildSparse(seed int64, tables int, lookups int, rows int64) [][]int64 {
	rng := rand.New(rand.NewSource(seed))
	sparse := make([][]int64, tables)
	for t := range sparse {
		for i := 0; i < lookups; i++ {
			sparse[t] = append(sparse[t], rng.Int63n(rows))
		}
	}
	return sparse
}

// refEngine is the differential oracle for the lookup path: Fig. 6 written
// as one loop, one lookup at a time — translate, read the vector through
// ssd.Device.ReadVectorAt, accumulate it, occupy EV Sum — with no phases,
// lanes, cache or dedup. It owns its EV Sum unit and its counters.
type refEngine struct {
	tr    *Translator
	dev   *ssd.Device
	cfg   model.Config
	sum   *sim.Resource
	stats LookupStats
}

func newRefEngine(st *embedding.Store, dev *ssd.Device) *refEngine {
	return &refEngine{
		tr:  NewTranslator(st, dev.PageSize()),
		dev: dev,
		cfg: st.Model().Cfg,
		sum: sim.NewResource("ref-evsum"),
	}
}

// refPool pools a batch one inference at a time, each inference's index
// stream clocked from at. A read fault contributes no bytes and no EV Sum
// term and fails the call once every lookup has issued; a range error
// aborts at once.
func (r *refEngine) refPool(at sim.Time, sparses [][][]int64) ([][]tensor.Vector, sim.Time, error) {
	evSize := r.cfg.EVSize()
	sumOcc := params.Duration(sim.Cycles((r.cfg.EVDim + params.EVSumLanes - 1) / params.EVSumLanes))
	pooled := make([][]tensor.Vector, len(sparses))
	var done sim.Time
	var firstErr error
	for b, sparse := range sparses {
		pooled[b] = make([]tensor.Vector, len(sparse))
		issue := at
		for t, rows := range sparse {
			pooled[b][t] = make(tensor.Vector, r.cfg.EVDim)
			for _, row := range rows {
				issue += params.CycleTime
				addr, err := r.tr.Lookup(t, row)
				if err != nil {
					return nil, sim.Max(done, issue), err
				}
				data, readDone, err := r.dev.ReadVectorAt(issue, addr, evSize)
				r.stats.Lookups++
				r.stats.BytesPooled += int64(evSize)
				if err != nil {
					if firstErr == nil {
						firstErr = err
					}
					done = sim.Max(done, readDone)
					continue
				}
				model.AccumulateEV(pooled[b][t], data)
				_, sumDone := r.sum.Acquire(readDone, sumOcc)
				done = sim.Max(done, sumDone)
			}
		}
		done = sim.Max(done, issue)
	}
	return pooled, done, firstErr
}

// TestPoolParallelMatchesSequential is the engine-level differential test:
// the lookup path at every host-parallelism degree must reproduce refPool
// bit for bit — pooled float values, completion times of the value and
// timing-only entries, engine counters, flash traffic, fault draws and
// per-resource schedules — over single- and multi-inference batches, with
// and without injected read faults.
func TestPoolParallelMatchesSequential(t *testing.T) {
	for _, faults := range []flash.FaultPlan{{}, {Rate: 0.05, Seed: 9}} {
		for _, par := range []int{1, 2, 3, 8} {
			_, refSt, _, refDev := setupLookup(t, smallRMC1())
			_, _, eng, dev := setupLookup(t, smallRMC1())
			ref := newRefEngine(refSt, refDev)
			for _, d := range []*ssd.Device{refDev, dev} {
				if err := d.Array().SetFaultPlan(faults); err != nil {
					t.Fatal(err)
				}
			}
			eng.SetParallel(par)
			if eng.Parallel() != par {
				t.Fatalf("Parallel() = %d, want %d", eng.Parallel(), par)
			}

			var at sim.Time
			for round := 0; round < 3; round++ {
				batch := make([][][]int64, round+1)
				for i := range batch {
					batch[i] = buildSparse(int64(round)*7717+int64(i)*31+1, 8, 120, 2048)
				}
				a, aDone, aErr := ref.refPool(at, batch)
				b, bDone, bErr := eng.PoolBatch(at, batch)
				if (aErr != nil) != (bErr != nil) || (aErr != nil && !errors.Is(bErr, flash.ErrUncorrectable)) {
					t.Fatalf("faults=%v par=%d round=%d: errs %v, %v", faults.Enabled(), par, round, aErr, bErr)
				}
				if aDone != bDone {
					t.Fatalf("faults=%v par=%d round=%d: done %v != %v", faults.Enabled(), par, round, aDone, bDone)
				}
				for inf := range a {
					for tbl := range a[inf] {
						for i := range a[inf][tbl] {
							if math.Float32bits(a[inf][tbl][i]) != math.Float32bits(b[inf][tbl][i]) {
								t.Fatalf("faults=%v par=%d round=%d: pooled[%d][%d][%d] %v != %v",
									faults.Enabled(), par, round, inf, tbl, i, a[inf][tbl][i], b[inf][tbl][i])
							}
						}
					}
				}
				// Timing-only entry from the advanced clock.
				_, rd, rErr := ref.refPool(aDone, batch)
				pd, pErr := eng.PoolBatchTiming(bDone, batch)
				if (rErr != nil) != (pErr != nil) {
					t.Fatalf("faults=%v par=%d round=%d: timing errs %v, %v", faults.Enabled(), par, round, rErr, pErr)
				}
				if rd != pd {
					t.Fatalf("faults=%v par=%d round=%d: timing done %v != %v", faults.Enabled(), par, round, rd, pd)
				}
				at = pd + 1
			}

			if ref.stats != eng.Stats() {
				t.Fatalf("faults=%v par=%d: engine stats %+v != %+v", faults.Enabled(), par, ref.stats, eng.Stats())
			}
			if refDev.Stats() != dev.Stats() {
				t.Fatalf("faults=%v par=%d: device stats %+v != %+v", faults.Enabled(), par, refDev.Stats(), dev.Stats())
			}
			if refDev.Array().Stats() != dev.Array().Stats() {
				t.Fatalf("faults=%v par=%d: flash stats %+v != %+v", faults.Enabled(), par, refDev.Array().Stats(), dev.Array().Stats())
			}
			if faults.Enabled() && dev.Array().Stats().ReadFaults == 0 {
				t.Fatalf("par=%d: fault plan drew no faults", par)
			}
			if rd, pd := refDev.Drained(), dev.Drained(); rd != pd {
				t.Fatalf("faults=%v par=%d: drained %v != %v", faults.Enabled(), par, rd, pd)
			}
			// Per-resource schedules, not just the aggregate: every die and
			// bus must be free at the same instant with the same busy time.
			ra, pa := refDev.Array(), dev.Array()
			for ch := 0; ch < ra.Geometry().Channels; ch++ {
				ru := ra.BusUtilization(refDev.Drained())[ch]
				pu := pa.BusUtilization(dev.Drained())[ch]
				if ru != pu {
					t.Fatalf("faults=%v par=%d: bus[%d] utilization %v != %v", faults.Enabled(), par, ch, ru, pu)
				}
			}
		}
	}
}

// TestPoolParallelReusableAfterClose checks lanes release cleanly: a
// parallel pool followed by a direct device read must not trip
// lane-isolation invariants (exercised for real under -tags simdebug).
func TestPoolParallelReusableAfterClose(t *testing.T) {
	_, st, eng, dev := setupLookup(t, smallRMC1())
	eng.SetParallel(4)
	sparse := buildSparse(42, 8, 40, 2048)
	_, done, err := eng.PoolBatch(0, [][][]int64{sparse})
	if err != nil {
		t.Fatal(err)
	}
	// Direct array access after lanes closed: must not panic under simdebug.
	_, rd, rdErr := dev.ReadVectorAt(done, st.VectorAddr(0, 0), st.Model().Cfg.EVSize())
	if rdErr != nil {
		t.Fatal(rdErr)
	}
	if rd <= done {
		t.Fatalf("read done %v not after %v", rd, done)
	}
}

// TestPoolAbortLeavesEngineUntouched pins the abort contract: a batch that
// fails its shape or range check — here only at its last table or last
// inference, after earlier lookups were already parsed — changes nothing.
// The engine's counters, the cache (no entry left reserved) and the flash
// schedule are as before, so the next call completes exactly when it would
// on a fresh engine.
func TestPoolAbortLeavesEngineUntouched(t *testing.T) {
	cfg := smallRMC1()
	good := [][][]int64{buildSparse(5, cfg.Tables, 80, 2048), buildSparse(6, cfg.Tables, 80, 2048)}
	badRow := [][][]int64{good[0], buildSparse(6, cfg.Tables, 80, 2048)}
	badRow[1][cfg.Tables-1][79] = int64(cfg.RowsPerTable)
	badShape := [][][]int64{good[0], good[1][:cfg.Tables-1]}
	for _, par := range []int{1, 4} {
		for _, cached := range []bool{false, true} {
			setup := func() (*LookupEngine, *ssd.Device, *evcache.Cache) {
				_, _, eng, dev := setupLookup(t, cfg)
				eng.SetParallel(par)
				var c *evcache.Cache
				if cached {
					c = evcache.New(int64(cfg.EVSize())*4096, cfg.EVSize())
					eng.SetEVCache(c)
					eng.SetDedup(true)
				}
				return eng, dev, c
			}
			fresh, _, _ := setup()
			want, wantDone, err := fresh.PoolBatch(0, good)
			if err != nil {
				t.Fatal(err)
			}

			eng, dev, c := setup()
			for _, bad := range []struct {
				batch [][][]int64
				want  error
			}{{badRow, ErrRowOutOfRange}, {badShape, ErrShapeMismatch}} {
				if _, _, err := eng.PoolBatch(0, bad.batch); !errors.Is(err, bad.want) {
					t.Fatalf("par=%d cached=%v: err = %v, want %v", par, cached, err, bad.want)
				}
				if _, err := eng.PoolBatchTiming(0, bad.batch); !errors.Is(err, bad.want) {
					t.Fatalf("par=%d cached=%v: timing err = %v, want %v", par, cached, err, bad.want)
				}
			}
			if eng.Stats() != (LookupStats{}) {
				t.Fatalf("par=%d cached=%v: aborted calls left stats %+v", par, cached, eng.Stats())
			}
			if fs := dev.Array().Stats(); fs != (flash.Stats{}) || dev.Drained() != 0 {
				t.Fatalf("par=%d cached=%v: aborted calls touched flash: %+v, drained %v", par, cached, fs, dev.Drained())
			}
			if c != nil && (c.Len() != 0 || c.Stats() != (evcache.Stats{})) {
				t.Fatalf("par=%d cached=%v: aborted calls left %d cache entries, stats %+v", par, cached, c.Len(), c.Stats())
			}

			got, gotDone, err := eng.PoolBatch(0, good)
			if err != nil {
				t.Fatal(err)
			}
			if gotDone != wantDone {
				t.Fatalf("par=%d cached=%v: done after abort %v, fresh engine %v", par, cached, gotDone, wantDone)
			}
			if eng.Stats() != fresh.Stats() {
				t.Fatalf("par=%d cached=%v: stats %+v, fresh engine %+v", par, cached, eng.Stats(), fresh.Stats())
			}
			for inf := range want {
				for tbl := range want[inf] {
					if tensor.MaxAbsDiff(want[inf][tbl], got[inf][tbl]) != 0 {
						t.Fatalf("par=%d cached=%v: pooled[%d][%d] differs from a fresh engine", par, cached, inf, tbl)
					}
				}
			}
		}
	}
}
