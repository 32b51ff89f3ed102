package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rmssd"
	"rmssd/internal/serving"
)

// The in-process leg replays a traced run's request sequence through a
// serving stack the benchmark assembles from the same public constructors
// rmserve uses: devices (or arrays) with the options the workload's flags
// map to, a Batcher of the benchmark's own, serving.NewRegistry and
// serving.NewRouter. Spans wrap Router.Submit, Pool.Submit, ServeBatch,
// ValidateInputs and InferBatch.

// backend is what a shard needs from a device or an array.
type backend interface {
	ValidateInputs(denses []rmssd.Vector, sparses [][][]int64) error
	InferBatch(at time.Duration, denses []rmssd.Vector, sparses [][][]int64) ([]float32, time.Duration, rmssd.Breakdown, error)
	NBatch() int
}

// batchRecord is one device batch served in-process.
type batchRecord struct {
	host          time.Duration // wall time of InferBatch
	sim           time.Duration // simulated latency of the batch
	transferBytes int64         // array gather bytes
	partials      int64         // array partial sums gathered
}

// reqIDs ties a pool submission back to its request and Pool.Submit span.
type reqIDs struct{ req, pool int64 }

// stack is the in-process serving stack.
type stack struct {
	name     string
	reg      *serving.Registry
	router   *serving.Router
	shards   []*benchShard
	nbatch   int
	rec      *recorder // set only between replays, never during one
	inflight sync.Map  // *[][]int64 (a submission's first inference) -> reqIDs
}

// benchShard is the benchmark's serving.Batcher: it serves explicit
// requests exactly as rmserve's shard does, recording spans and batches.
type benchShard struct {
	st      *stack
	dev     backend
	arr     *rmssd.Array
	now     time.Duration
	zero    rmssd.Vector
	batches []batchRecord // written by the shard goroutine; read after Close
}

func newStack(w workload) (*stack, error) {
	cfg, err := w.config()
	if err != nil {
		return nil, err
	}
	st := &stack{name: cfg.Name, reg: serving.NewRegistry()}
	var backends []serving.Batcher
	for i := 0; i < w.shards; i++ {
		sh := &benchShard{st: st, zero: make(rmssd.Vector, cfg.DenseDim)}
		if w.arrayDevices > 1 {
			sh.arr, err = rmssd.NewArray(cfg, w.deviceOptions(i))
			sh.dev = sh.arr
		} else {
			sh.dev, err = rmssd.NewDevice(cfg, w.deviceOptions(i))
		}
		if err != nil {
			return nil, err
		}
		st.nbatch = sh.dev.NBatch()
		st.shards = append(st.shards, sh)
		backends = append(backends, sh)
	}
	if err := st.reg.Register(serving.ModelSpec{
		Name: st.name, Backends: backends, MaxBatch: st.nbatch, QueueDepth: 256, Weight: 1,
	}); err != nil {
		return nil, err
	}
	st.router = serving.NewRouter(st.reg, 0)
	return st, nil
}

// close stops the pools; afterwards the shards' batch records are stable.
func (st *stack) close() { st.reg.Close() }

// probeCtx records when Pool.Submit first checks its context, which it does
// on entry before enqueuing. That instant is the Pool.Submit span's start;
// its end is taken as Router.Submit's return, so the Router's few atomic
// updates after the pool call count as pool time. Without a check the span
// starts with Router.Submit.
type probeCtx struct {
	context.Context
	rec   *recorder
	first atomic.Int64 // recorder time + 1 of the first Err call; 0 = none
}

func (c *probeCtx) Err() error {
	c.first.CompareAndSwap(0, c.rec.now()+1)
	return c.Context.Err()
}

func (st *stack) submit(id int64, r *request) (reply, error) {
	rec := st.rec
	// A fresh outer slice per submission gives the shard a unique key to
	// find the submission's IDs by.
	sparse := append([][][]int64(nil), r.sparse...)
	routerID, poolID := rec.newID(), rec.newID()
	st.inflight.Store(&sparse[0], reqIDs{req: id, pool: poolID})
	ctx := &probeCtx{Context: context.Background(), rec: rec}
	t0 := rec.now()
	resp, err := st.router.Submit(ctx, st.name, serving.Request{Sparse: sparse})
	t1 := rec.now()
	st.inflight.Delete(&sparse[0])
	poolStart := t0
	if f := ctx.first.Load(); f > 0 {
		poolStart = f - 1
	}
	rec.add(span{ID: poolID, Parent: routerID, Name: "Pool.Submit", Req: id, Start: poolStart, End: t1})
	rec.add(span{ID: routerID, Name: "Router.Submit", Req: id, Start: t0, End: t1})
	if err != nil {
		return reply{}, err
	}
	bd, ok := resp.Meta.(rmssd.Breakdown)
	if !ok {
		return reply{}, errors.New("in-process reply carries no breakdown")
	}
	return reply{
		preds: resp.Preds, sim: resp.Latency, batch: resp.BatchSize, coalesced: resp.Coalesced,
		stages: [5]time.Duration{bd.Send, bd.Emb, bd.Bot, bd.Top, bd.Read},
	}, nil
}

// ServeBatch implements serving.Batcher for explicit requests, as rmserve's
// shard does: per-request validation, one InferBatch at the shard's clock.
func (sh *benchShard) ServeBatch(reqs []serving.Request) serving.BatchResult {
	rec := sh.st.rec
	start := rec.now()
	serveIDs := make([]int64, len(reqs))
	ids := make([]reqIDs, len(reqs))
	var (
		denses  []rmssd.Vector
		sparses [][][]int64
		res     serving.BatchResult
	)
	for i, req := range reqs {
		if v, ok := sh.st.inflight.Load(&req.Sparse[0]); ok {
			ids[i] = v.(reqIDs)
		}
		serveIDs[i] = rec.newID()
		mark := len(sparses)
		for range req.Sparse {
			denses = append(denses, sh.zero)
		}
		sparses = append(sparses, req.Sparse...)
		v0 := rec.now()
		err := sh.dev.ValidateInputs(denses[mark:], sparses[mark:])
		rec.add(span{Parent: serveIDs[i], Name: "ValidateInputs", Req: ids[i].req, Start: v0, End: rec.now()})
		if err != nil {
			if res.ReqErrs == nil {
				res.ReqErrs = make([]error, len(reqs))
			}
			res.ReqErrs[i] = err
			denses, sparses = denses[:mark], sparses[:mark]
		}
	}
	if len(sparses) > 0 {
		var before rmssd.ArrayStats
		if sh.arr != nil {
			before = sh.arr.Stats()
		}
		i0 := rec.now()
		h0 := time.Now()
		outs, done, bd, err := sh.dev.InferBatch(sh.now, denses, sparses)
		host := time.Since(h0)
		i1 := rec.now()
		b := batchRecord{host: host, sim: done - sh.now}
		if sh.arr != nil {
			after := sh.arr.Stats()
			b.transferBytes = after.TransferBytes - before.TransferBytes
			b.partials = after.Partials - before.Partials
		}
		sh.batches = append(sh.batches, b)
		res.Preds, res.Latency, res.Meta, res.Err = outs, done-sh.now, bd, err
		sh.now = done
		for i := range reqs {
			rec.add(span{Parent: serveIDs[i], Name: "InferBatch", Req: ids[i].req, Start: i0, End: i1})
		}
	}
	end := rec.now()
	for i := range reqs {
		rec.add(span{ID: serveIDs[i], Parent: ids[i].pool, Name: "ServeBatch", Req: ids[i].req, Start: start, End: end})
	}
	return res
}

// batches returns every shard's batch records; call after close.
func (st *stack) batches() []batchRecord {
	var out []batchRecord
	for _, sh := range st.shards {
		out = append(out, sh.batches...)
	}
	return out
}

// twinMetrics are engine and model costs measured on twin devices.
type twinMetrics struct {
	pool, poolTiming, mlp []time.Duration // per request (one device batch)
	evSynth               time.Duration   // total over evCalls
	evCalls               int64
}

// twinLeg feeds reqs to two twin devices built like a served shard: one
// runs LookupEngine.PoolBatch and MLPEngine.Forward, the other
// LookupEngine.PoolBatchTiming, each on its own clock and cache. Costs are
// kept for reqs[from:]; the earlier requests only warm the twins' caches.
// An array workload's twins are single devices holding the whole model,
// which a one-member array equals bit for bit. Every twin prediction is
// checked against the reference.
func twinLeg(w workload, reqs []*request, from int) (*twinMetrics, error) {
	cfg, err := w.config()
	if err != nil {
		return nil, err
	}
	opts := w.deviceOptions(0)
	opts.ArrayDevices, opts.Partition = 0, ""
	full, err := rmssd.NewDevice(cfg, opts)
	if err != nil {
		return nil, err
	}
	timing, err := rmssd.NewDevice(cfg, opts)
	if err != nil {
		return nil, err
	}
	m := full.Model()
	zero := make(rmssd.Vector, cfg.DenseDim)
	buf := make([]byte, cfg.EVSize())
	tm := &twinMetrics{}
	var atFull, atTiming time.Duration
	for k, r := range reqs {
		t0 := time.Now()
		pooled, done, err := full.Lookup().PoolBatch(atFull, r.sparse)
		t1 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("twin PoolBatch: %w", err)
		}
		atFull = done
		preds := make([]float32, len(r.sparse))
		for i := range r.sparse {
			preds[i] = full.MLP().Forward(zero, pooled[i])
		}
		t2 := time.Now()
		if err := checkPreds(preds, r.ref); err != nil {
			return nil, fmt.Errorf("twin request %d: %w", k, err)
		}
		t3 := time.Now()
		if atTiming, err = timing.Lookup().PoolBatchTiming(atTiming, r.sparse); err != nil {
			return nil, fmt.Errorf("twin PoolBatchTiming: %w", err)
		}
		t4 := time.Now()
		if k < from {
			continue
		}
		tm.pool = append(tm.pool, t1.Sub(t0))
		tm.mlp = append(tm.mlp, t2.Sub(t1))
		tm.poolTiming = append(tm.poolTiming, t4.Sub(t3))
		e0 := time.Now()
		for _, inf := range r.sparse {
			for t, rows := range inf {
				for _, row := range rows {
					m.EVBytesInto(t, row, 0, buf)
				}
				tm.evCalls += int64(len(rows))
			}
		}
		tm.evSynth += time.Since(e0)
	}
	return tm, nil
}
