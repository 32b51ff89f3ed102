// Package engine implements the paper's two in-storage compute engines:
//
//   - the Embedding Lookup Engine (Section IV-B): EV Translator, EV-FMC
//     vector-grained reads and the EV Sum pooling unit;
//   - the MLP Acceleration Engine (Section IV-C): FC kernels with
//     intra-layer decomposition, inter-layer composition and the
//     resource-minimising kernel search (Rules One-Four).
//
// Both engines compute real float32 results (validated against the host
// reference model) and account simulated time against the shared flash and
// FPGA resources.
package engine

import (
	"fmt"
	"runtime"
	"sort"

	"rmssd/internal/embedding"
	"rmssd/internal/evcache"
	"rmssd/internal/flash"
	"rmssd/internal/model"
	"rmssd/internal/params"
	"rmssd/internal/sim"
	"rmssd/internal/ssd"
)

// extentMeta is one row of the EV Translator's embedding-table metadata
// (Fig. 6): a contiguous index range mapped to its starting device address.
type extentMeta struct {
	FirstRow int64 // first vector index in the extent
	RowCount int64 // number of vectors in the extent
	Addr     int64 // device byte address of the extent start
}

// Translator is the EV Translator: it parses embedding lookup indices into
// device addresses using per-table extent metadata registered at
// RM_open_table time.
type Translator struct {
	evSize int64
	vpp    int64 // vectors per page
	ps     int64
	tables [][]extentMeta
}

// NewTranslator builds translator metadata from a store's table files,
// mirroring the host's "system call to get the file LBA information of
// each table" followed by the metadata download over RM Registers. Since
// the vector dimension is fixed, the index range of each extent is
// precomputed once (Fig. 6 step 1).
func NewTranslator(st *embedding.Store, pageSize int) *Translator {
	cfg := st.Model().Cfg
	tr := &Translator{
		evSize: int64(cfg.EVSize()),
		vpp:    st.VectorsPerPage(),
		ps:     int64(pageSize),
	}
	for t := 0; t < cfg.Tables; t++ {
		var metas []extentMeta
		for _, e := range st.File(t).Extents() {
			pages := e.Len / tr.ps
			metas = append(metas, extentMeta{
				FirstRow: (e.FileOff / tr.ps) * tr.vpp,
				RowCount: pages * tr.vpp,
				Addr:     e.Addr,
			})
		}
		tr.tables = append(tr.tables, metas)
	}
	return tr
}

// Tables returns the number of registered tables.
func (tr *Translator) Tables() int { return len(tr.tables) }

// Lookup resolves (table, row) to the device byte address of the vector,
// performing the five steps of Fig. 6: fetch index, find the extent whose
// index range contains it (the hardware checks index ranges in parallel;
// here a binary search over the sorted ranges), take the extent's start
// address, and add the in-extent offset (slot arithmetic keeps vectors
// page-aligned). Lookups outside the registered extents return an error
// wrapping ErrRowOutOfRange: indices come straight from request payloads,
// so a bad one must fail the call, not the device.
func (tr *Translator) Lookup(table int, row int64) (int64, error) {
	if table < 0 || table >= len(tr.tables) {
		return 0, fmt.Errorf("engine: table %d of %d: %w", table, len(tr.tables), ErrRowOutOfRange)
	}
	e, ok := tr.find(table, row)
	if !ok {
		return 0, fmt.Errorf("engine: row %d of table %d not covered by extents: %w", row, table, ErrRowOutOfRange)
	}
	local := row - e.FirstRow
	return e.Addr + (local/tr.vpp)*tr.ps + (local%tr.vpp)*tr.evSize, nil
}

// Covers reports whether (table, row) resolves to a registered extent,
// without computing the address. It backs request prevalidation.
func (tr *Translator) Covers(table int, row int64) bool {
	if table < 0 || table >= len(tr.tables) {
		return false
	}
	_, ok := tr.find(table, row)
	return ok
}

// find locates the extent containing row in table's sorted extent list.
func (tr *Translator) find(table int, row int64) (extentMeta, bool) {
	if row < 0 {
		return extentMeta{}, false
	}
	metas := tr.tables[table]
	i := sort.Search(len(metas), func(i int) bool {
		return metas[i].FirstRow+metas[i].RowCount > row
	})
	if i == len(metas) || row < metas[i].FirstRow {
		return extentMeta{}, false
	}
	return metas[i], true
}

// LookupStats counts Embedding Lookup Engine activity.
type LookupStats struct {
	Lookups     int64
	BytesPooled int64 // bytes read at vector granularity
	// DedupHits counts lookups merged with an earlier identical (table,row)
	// lookup of the same coalesced batch instead of issuing their own read
	// (dedup enabled; see pool.go).
	DedupHits int64
}

// LookupEngine is the assembled Embedding Lookup Engine.
type LookupEngine struct {
	st    *embedding.Store
	tr    *Translator
	dev   *ssd.Device
	sum   *sim.Resource // EV Sum adder-tree unit
	stats LookupStats

	// parallel is the number of host goroutines that run the flash lanes of
	// one batch (see pool.go). <=1 runs them inline; results are
	// byte-identical either way.
	parallel int

	// cache and dedup enable the locality mechanisms of pool.go. Both off
	// (the default) keeps the plan free of cache and dedup work.
	cache *evcache.Cache
	dedup bool

	// Scratch buffers reused across lookup batches. The engine is driven
	// from a single goroutine (one device per serving shard); every buffer
	// is dead by the time a pool call returns, so reuse only trims
	// allocations, never aliases live state.
	slots  []lkSlot
	perCh  [][]int32
	lanes  []*flash.Lane
	owners map[evcache.Key]int32
	zeroEV []byte
	arena  []byte // value reads' bytes, one EV-sized piece per slot
}

// NewLookupEngine wires the engine to a store's device.
func NewLookupEngine(st *embedding.Store, dev *ssd.Device) *LookupEngine {
	return &LookupEngine{
		st:  st,
		tr:  NewTranslator(st, dev.PageSize()),
		dev: dev,
		sum: sim.NewResource("evsum"),
	}
}

// Translator exposes the translator (for tests and tools).
func (e *LookupEngine) Translator() *Translator { return e.tr }

// SetParallel sets the number of host goroutines that run the flash lanes of
// one lookup batch. n <= 0 means GOMAXPROCS. Lane partitioning keeps results
// byte-identical at every setting (pool.go), so this only trades host CPU
// for wall-clock.
func (e *LookupEngine) SetParallel(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	e.parallel = n
}

// Parallel returns the effective host-parallelism degree (at least 1).
func (e *LookupEngine) Parallel() int {
	if e.parallel <= 1 {
		return 1
	}
	return e.parallel
}

// SetEVCache installs (or, with nil, removes) the device-DRAM EV cache
// (pool.go); predictions remain byte-identical to the uncached engine.
func (e *LookupEngine) SetEVCache(c *evcache.Cache) { e.cache = c }

// EVCache returns the installed cache, or nil.
func (e *LookupEngine) EVCache() *evcache.Cache { return e.cache }

// SetDedup enables intra-batch duplicate-lookup dedup: identical
// (table,row) references within one pooled batch issue a single vector read
// whose result fans out (each duplicate still contributes its term to the
// pooled sum and its EV Sum occupancy).
func (e *LookupEngine) SetDedup(on bool) { e.dedup = on }

// Dedup reports whether intra-batch dedup is enabled.
func (e *LookupEngine) Dedup() bool { return e.dedup }

// Invalidate drops a vector from the EV cache (no-op without one). The
// device calls it when the row is overwritten through the block path.
func (e *LookupEngine) Invalidate(table int, row int64) {
	if e.cache != nil {
		e.cache.Invalidate(table, row)
	}
}

// Stats returns a snapshot of engine counters.
func (e *LookupEngine) Stats() LookupStats { return e.stats }

// sumCycles is the EV Sum occupancy per returned vector: each of the
// vector's dimensions is independent, accumulated across EVSumLanes
// parallel fp32 adders.
func (e *LookupEngine) sumCycles() sim.Cycles {
	dim := e.st.Model().Cfg.EVDim
	c := sim.Cycles((dim + params.EVSumLanes - 1) / params.EVSumLanes)
	if c < 1 {
		c = 1
	}
	return c
}

// VectorReadBandwidth returns bEV: the steady-state vector-read bandwidth
// of the flash array as a typed byte rate, the denominator of Eq. 1a (whose
// vectors/second form is bev.UnitsPerSecond(evSize)). The per-channel rate
// is limited by the slower of the die-side flush pipeline
// (FlushCycles/DiesPerChannel per vector) and the bus transfer.
func VectorReadBandwidth(evSize, channels, diesPerChannel int) sim.ByteRate {
	flushPer := float64(params.FlushCycles) / float64(diesPerChannel)
	busPer := float64(params.VectorTransferCycles(evSize))
	per := flushPer
	if busPer > per {
		per = busPer
	}
	cyclesPerSec := float64(params.FPGAClockHz)
	vecPerSec := cyclesPerSec / per * float64(channels)
	//lint:allow units analytic vectors/s * bytes/vector -> ByteRate, constructed once here
	return sim.ByteRate(vecPerSec * float64(evSize))
}

// TembEstimate returns the analytic embedding-stage time of Eq. 1a's first
// term for a batch: Nbatch * M * N / bEV.
func TembEstimate(cfg model.Config, nbatch, channels, diesPerChannel int) sim.Time {
	bev := VectorReadBandwidth(cfg.EVSize(), channels, diesPerChannel)
	vectors := float64(nbatch) * float64(cfg.Tables) * float64(cfg.Lookups)
	return sim.Time(vectors / bev.UnitsPerSecond(cfg.EVSize()) * 1e9)
}
