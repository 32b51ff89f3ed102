package engine

import (
	"fmt"
	"sync"

	"rmssd/internal/evcache"
	"rmssd/internal/flash"
	"rmssd/internal/model"
	"rmssd/internal/params"
	"rmssd/internal/sim"
	"rmssd/internal/ssd"
	"rmssd/internal/tensor"
)

// The lookup path.
//
// The Embedding Lookup Engine (Section IV-B, Fig. 6) is one pipeline: parse
// an index, translate it with the EV Translator, read the vector from flash
// at vector granularity, accumulate it in EV Sum. The engine runs that
// pipeline for a whole coalesced batch in three phases:
//
//  1. plan (sequential, global order): clock the index stream (one index
//     per cycle) and translate every index first, so a shape or range
//     error aborts the call before any engine, cache or device state
//     changes. Then consult the dedup table and the cache, run the FTL for
//     each flash read and bucket the reads by channel. Every piece of
//     shared state the schedule depends on — LRU recency, reservations,
//     evictions, cache-port and FTL bookkeeping — mutates here, in one
//     deterministic order.
//  2. flash (one lane per channel): a vector read touches one die pool and
//     one bus, both owned by its channel, and sim.Resource is FCFS, so each
//     channel's bucket replays in plan order on its own flash.Lane with the
//     exact (start, end) intervals a single-threaded schedule gives. The
//     lanes run on min(Parallel, channels) worker goroutines, or inline
//     with one; each worker writes only its own channels' slots.
//  3. reduce (sequential, global order): resolve each lookup's bytes and
//     ready time, fill reserved cache entries and replay the EV Sum unit.
//     PoolBatch then accumulates the floats in the original lookup order.
//
// Every shared mutation happens in phase 1 or 3 in the original order, so
// values, simulated times and all counters are byte-identical at any
// parallelism degree (asserted under simdebug via lane binding).
//
// Locality. Recommendation traffic is heavily skewed (Section III-B2), yet a
// plain lookup issues one full C_EV flash read per sparse index, even when
// the same hot row appears dozens of times in one coalesced batch. Two
// optional, strictly value-preserving mechanisms exploit the skew; with
// neither enabled the plan does no cache or dedup work:
//
//   - EV cache: vectors resident in the controller's DRAM are served in
//     params.EVCacheHitCycles (~8 cycles for a 128 B vector, vs C_EV ≈ 2838)
//     over the cache's FCFS DRAM port; misses read flash and fill the
//     cache. A read that fills an entry gets its own buffer, which the
//     entry keeps, so a hit returns exactly the bytes a flash read would.
//     Every other value read lands in the engine's reused per-batch arena.
//   - Dedup: within one pooled batch, repeated (table,row) references merge
//     with the first occurrence's read. Each duplicate still contributes its
//     own term to the pooled sum (SparseLengthsSum semantics: a row listed
//     twice counts twice) and still occupies the EV Sum unit for its slot —
//     only the redundant flash/DRAM fetch disappears. Its data becomes ready
//     when the owning read's does (never before the duplicate's own issue
//     cycle), so dedup can only pull completion earlier, exactly like the
//     hardware broadcasting one returned vector to several accumulators.
//
// MSHR invariant: a miss Reserves its cache entry during plan and Fills it
// during reduce, so an unfilled resident entry always belongs to the current
// batch and its owning slot is in e.owners. Entries never persist unfilled
// across batches, and the plan cannot abort once it has reserved one.

// slotKind says how one lookup's bytes are produced.
type slotKind uint8

const (
	slotFlash slotKind = iota // vector read from flash
	slotZero                  // unmapped page on a dynamic device: zeros
	slotHit                   // EV cache hit served over the DRAM port
	slotDup                   // merged with an earlier slot's read
)

// lkSlot is one lookup's state across the three phases.
type lkSlot struct {
	vec   int32 // flat accumulator index: inference*Tables + table
	kind  slotKind
	owner int32    // slotDup: the owning slot's index
	issue sim.Time // cycle the index was parsed (slotDup: ready floor)
	addr  int64    // device byte address from the EV Translator
	key   evcache.Key
	vr    ssd.VectorRead
	fill  *evcache.Entry // slotFlash/slotZero: reserved entry to Fill (may be nil)
	data  []byte
	ready sim.Time
	err   error // uncorrectable read (wraps flash.ErrUncorrectable)
}

// PoolBatch performs the pooled lookups of a coalesced batch of inferences.
// Each inference's index stream is clocked from at: the engine translates
// its indices (one per cycle from the Index Buffer), issues vector-grained
// reads striped over channels and dies by the FTL's linear map, and
// accumulates returns in the EV Sum unit. It returns each inference's
// pooled vector per table and the completion time of the whole batch. With
// dedup enabled, identical (table,row) references anywhere in the batch
// share one read.
//
// Shape and row errors (ErrShapeMismatch, ErrRowOutOfRange) abort the call
// in the plan phase and leave the engine, its cache and the device exactly
// as they were; callers that prevalidate with ValidateLookups never see
// them. Injected read faults (flash.ErrUncorrectable) do not abort: every
// lookup of the batch still issues — so the simulated timeline stays
// deterministic and identical across host-parallelism settings — and the
// first fault in lookup order is returned, wrapped with its table and row.
func (e *LookupEngine) PoolBatch(at sim.Time, sparses [][][]int64) ([][]tensor.Vector, sim.Time, error) {
	slots, maxIssue, err := e.plan(at, sparses)
	if err != nil {
		return nil, maxIssue, err
	}
	e.readLanes(slots, true)
	done, err := e.reduce(slots, maxIssue)
	cfg := e.st.Model().Cfg
	pooled, flat := pooledVectors(len(sparses), cfg.Tables, cfg.EVDim)
	for i := range slots {
		if s := &slots[i]; s.err == nil {
			off := int(s.vec) * cfg.EVDim
			model.AccumulateEV(flat[off:off+cfg.EVDim], s.data)
		}
	}
	return pooled, done, err
}

// PoolBatchTiming is PoolBatch without materialising values: flash reads
// fetch bytes only to fill an installed cache.
func (e *LookupEngine) PoolBatchTiming(at sim.Time, sparses [][][]int64) (sim.Time, error) {
	slots, maxIssue, err := e.plan(at, sparses)
	if err != nil {
		return maxIssue, err
	}
	e.readLanes(slots, false)
	return e.reduce(slots, maxIssue)
}

// pooledVectors allocates n inferences' worth of per-table accumulators over
// one flat backing array, which it also returns (2 allocations per
// inference instead of Tables+1; the zero values and full-cap sub-slices are
// indistinguishable from individually allocated vectors).
func pooledVectors(n, tables, dim int) ([][]tensor.Vector, tensor.Vector) {
	flat := make(tensor.Vector, n*tables*dim)
	out := make([][]tensor.Vector, n)
	for i := range out {
		vecs := make([]tensor.Vector, tables)
		for t := range vecs {
			off := (i*tables + t) * dim
			vecs[t] = flat[off : off+dim : off+dim]
		}
		out[i] = vecs
	}
	return out, flat
}

// plan is phase 1. It returns the batch's lookup slots (reads bucketed by
// channel in e.perCh) and the cycle of the last parsed index. On error
// nothing has changed but the scratch buffers.
func (e *LookupEngine) plan(at sim.Time, sparses [][][]int64) ([]lkSlot, sim.Time, error) {
	if len(sparses) == 0 {
		return nil, at, fmt.Errorf("engine: empty lookup batch: %w", ErrShapeMismatch)
	}
	cfg := e.st.Model().Cfg
	slots := e.slots[:0]
	var maxIssue sim.Time
	for b, sparse := range sparses {
		if len(sparse) != cfg.Tables {
			return nil, sim.Max(at, maxIssue), fmt.Errorf("engine: inference %d: %d sparse inputs, want %d: %w",
				b, len(sparse), cfg.Tables, ErrShapeMismatch)
		}
		issue := at
		for t, rows := range sparse {
			vec := int32(b*cfg.Tables + t)
			for _, row := range rows {
				// One index parsed per cycle (Read EV Req, Fig. 6).
				issue += params.CycleTime
				addr, err := e.tr.Lookup(t, row)
				if err != nil {
					return nil, sim.Max(issue, maxIssue), fmt.Errorf("engine: inference %d: %w", b, err)
				}
				slots = append(slots, lkSlot{vec: vec, issue: issue, addr: addr, key: evcache.Key{Table: t, Row: row}})
			}
		}
		maxIssue = sim.Max(maxIssue, issue)
	}
	e.slots = slots

	evSize := cfg.EVSize()
	e.stats.Lookups += int64(len(slots))
	e.stats.BytesPooled += int64(len(slots)) * int64(evSize)
	if len(e.zeroEV) != evSize {
		e.zeroEV = make([]byte, evSize)
	}
	locality := e.dedup || e.cache != nil
	if locality {
		if e.owners == nil {
			e.owners = make(map[evcache.Key]int32)
		} else {
			clear(e.owners)
		}
	}
	perCh := e.resetPerCh()
	for i := range slots {
		s := &slots[i]
		if e.dedup {
			if own, ok := e.owners[s.key]; ok {
				e.stats.DedupHits++
				s.kind, s.owner = slotDup, own
				continue
			}
		}
		if e.cache != nil {
			if entry, ok := e.cache.Get(s.key.Table, s.key.Row); ok {
				if entry.Filled() {
					// Resident vector: one DRAM burst on the port.
					s.kind, s.data, s.ready = slotHit, entry.Data(), e.cache.Hit(s.issue)
					continue
				}
				// In-flight miss from this batch (MSHR merge).
				own, ok := e.owners[s.key]
				if !ok {
					panic(fmt.Sprintf("engine: unfilled cache entry for table %d row %d has no owning slot", s.key.Table, s.key.Row))
				}
				s.kind, s.owner = slotDup, own
				continue
			}
		}

		// Miss everywhere: read flash.
		s.vr = e.dev.PrepareVectorRead(s.issue, s.addr, evSize)
		if e.cache != nil {
			s.fill = e.cache.Reserve(s.key.Table, s.key.Row)
		}
		if s.vr.Mapped {
			s.kind = slotFlash
			perCh[s.vr.PPA.Channel] = append(perCh[s.vr.PPA.Channel], int32(i))
		} else {
			// Never-written page on a dynamic device: zeros at
			// translation time, no flash involvement.
			s.kind, s.ready, s.data = slotZero, s.vr.Start, e.zeroEV
		}
		if locality {
			e.owners[s.key] = int32(i)
		}
	}
	return slots, maxIssue, nil
}

// resetPerCh returns the engine's per-channel bucket scratch, emptied.
func (e *LookupEngine) resetPerCh() [][]int32 {
	if len(e.perCh) != e.dev.Channels() {
		e.perCh = make([][]int32, e.dev.Channels())
	}
	for ch := range e.perCh {
		e.perCh[ch] = e.perCh[ch][:0]
	}
	return e.perCh
}

// readLanes is phase 2: each channel's bucket replays in plan order on that
// channel's lane. values asks for every read's bytes; without it only reads
// that fill a cache entry fetch theirs, and the rest simulate timing and
// traffic alone.
func (e *LookupEngine) readLanes(slots []lkSlot, values bool) {
	if values {
		// One EV-sized piece per slot, so concurrent lanes write disjoint
		// bytes and a batch's value reads allocate nothing once the arena
		// has grown to the batch size.
		need := len(slots) * e.st.Model().Cfg.EVSize()
		if cap(e.arena) < need {
			e.arena = make([]byte, need)
		}
		e.arena = e.arena[:need]
	}
	if len(e.lanes) != len(e.perCh) {
		e.lanes = make([]*flash.Lane, len(e.perCh))
	}
	for ch, lane := range e.lanes {
		if lane == nil {
			e.lanes[ch] = e.dev.Array().Lane(ch)
		} else {
			lane.Reopen()
		}
	}
	workers := min(e.Parallel(), len(e.lanes))
	if workers == 1 {
		for ch := range e.lanes {
			e.readLane(ch, slots, values)
		}
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for ch := w; ch < len(e.lanes); ch += workers {
					e.readLane(ch, slots, values)
				}
			}(w)
		}
		wg.Wait()
	}
	for _, lane := range e.lanes {
		lane.Close()
	}
}

// readLane replays channel ch's reads on its lane, writing only their slots.
func (e *LookupEngine) readLane(ch int, slots []lkSlot, values bool) {
	lane := e.lanes[ch]
	for _, i := range e.perCh[ch] {
		s := &slots[i]
		size := s.vr.Size
		switch {
		case s.fill != nil:
			// The cache keeps a reference to these bytes, so they get
			// their own buffer rather than a piece of the reused arena.
			s.data = make([]byte, size)
		case values:
			s.data = e.arena[int(i)*size : int(i+1)*size : int(i+1)*size]
		default:
			s.ready, s.err = lane.ReadVectorTiming(s.vr.Start, s.vr.PPA, s.vr.Col, size)
			continue
		}
		s.ready, s.err = lane.ReadVector(s.vr.Start, s.vr.PPA, s.vr.Col, s.data)
	}
}

// reduce is phase 3. It returns the batch's completion time (never before
// its last parsed index) and the first read fault in lookup order.
func (e *LookupEngine) reduce(slots []lkSlot, maxIssue sim.Time) (sim.Time, error) {
	sumOcc := params.Duration(e.sumCycles())
	var done sim.Time
	var firstErr error
	for i := range slots {
		s := &slots[i]
		if s.kind == slotDup {
			own := &slots[s.owner]
			s.data, s.ready, s.err = own.data, sim.Max(s.issue, own.ready), own.err
		}
		if s.err != nil {
			// Uncorrectable read: drop the reserved entry (a Fill(nil)
			// would later serve nil bytes as a resident hit), contribute
			// no bytes and no EV Sum term, and fail the call after the
			// reduce completes so cache state stays on the deterministic
			// schedule.
			if s.fill != nil {
				e.cache.Invalidate(s.key.Table, s.key.Row)
			}
			if firstErr == nil {
				firstErr = fmt.Errorf("engine: inference %d: row %d of table %d: %w",
					int(s.vec)/e.st.Model().Cfg.Tables, s.key.Row, s.key.Table, s.err)
			}
			done = sim.Max(done, s.ready)
			continue
		}
		if s.fill != nil {
			// Deposit the read bytes (global order; recency untouched).
			s.fill.Fill(s.data)
		}
		_, sumDone := e.sum.Acquire(s.ready, sumOcc)
		done = sim.Max(done, sumDone)
	}
	return sim.Max(done, maxIssue), firstErr
}
