package baseline

import (
	"fmt"
	"time"

	"rmssd/internal/engine"
	"rmssd/internal/model"
	"rmssd/internal/sim"
	"rmssd/internal/tensor"
)

// EmbVectorSum is "RM-SSD running with Embedding Lookup Engine only": the
// vector-grained in-SSD pooling path of Section IV-B, with feature
// interaction and the MLPs still on the host CPU.
type EmbVectorSum struct {
	env    *Env
	lookup *engine.LookupEngine
}

// NewEmbVectorSum builds the EMB-VectorSum system.
func NewEmbVectorSum(env *Env) *EmbVectorSum {
	return &EmbVectorSum{env: env, lookup: engine.NewLookupEngine(env.Store, env.Dev)}
}

// Name implements System.
func (s *EmbVectorSum) Name() string { return "EMB-VectorSum" }

// Model implements System.
func (s *EmbVectorSum) Model() *model.Model { return s.env.M }

// Lookup exposes the engine for traffic accounting.
func (s *EmbVectorSum) Lookup() *engine.LookupEngine { return s.lookup }

func (s *EmbVectorSum) finish(at, poolDone sim.Time) (sim.Time, Breakdown) {
	cfg := s.env.M.Cfg
	bot, concat, top, other := hostMLP(s.env.M)
	ret := DMAOut(int64(cfg.Tables) * int64(cfg.EVSize()))
	bd := Breakdown{
		EmbSSD: time.Duration(poolDone - at),
		EmbFS:  ret,
		Concat: concat,
		BotMLP: bot,
		TopMLP: top,
		Other:  other,
	}
	return poolDone + ret + bd.Concat + bd.BotMLP + bd.TopMLP + bd.Other, bd
}

// Infer implements System.
func (s *EmbVectorSum) Infer(at sim.Time, dense tensor.Vector, sparse [][]int64) (float32, sim.Time, Breakdown) {
	checkSparse(s.env.M, sparse)
	pooled, poolDone, err := s.lookup.PoolBatch(at, [][][]int64{sparse})
	if err != nil {
		// In-range generator inputs on an unfaulted device cannot error.
		panic(fmt.Sprintf("baseline: %v", err))
	}
	done, bd := s.finish(at, poolDone)
	return hostForward(s.env.M, dense, pooled[0]), done, bd
}

// InferTiming implements System.
func (s *EmbVectorSum) InferTiming(at sim.Time, sparse [][]int64) (sim.Time, Breakdown) {
	checkSparse(s.env.M, sparse)
	poolDone, err := s.lookup.PoolBatchTiming(at, [][][]int64{sparse})
	if err != nil {
		panic(fmt.Sprintf("baseline: %v", err))
	}
	return s.finish(at, poolDone)
}
