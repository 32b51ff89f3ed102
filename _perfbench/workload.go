package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"rmssd"
)

// workload is one server configuration plus the traffic the client sends
// it. The server flags and the in-process stack are both derived from these
// fields, so the two legs of a traced run cannot drift apart.
type workload struct {
	name string
	why  string

	// Server configuration (rmserve flags).
	model        string
	tableMB      int64
	shards       int
	arrayDevices int
	partition    string
	evCacheMB    int64
	dedup        bool

	// Client settings.
	perReq   int  // inferences per request
	allCold  bool // draw indices with WithHotMass(0) instead of the default locality
	open     bool // open loop (Poisson arrivals) instead of closed loop
	rate     float64
	pool     int // closed loop: distinct requests, cycled in order
	warmup   int // requests sent before timing starts
	sloLimit time.Duration
}

// connections is the client's connection count on every workload: two,
// the CPU count of the host the benchmark was sized for.
const connections = 2

// workloads are the benchmark's traffic mixes. Each makes a different set of
// layers do most of the work; see README.md for the reasoning.
var workloads = []workload{
	{
		name:  "emb-flash",
		why:   "RMC1, 1 GiB tables, 1 shard; 4 all-cold inferences per request, closed loop, 2 connections: embedding lookups and content synthesis dominate",
		model: "RMC1", tableMB: 1024, shards: 1,
		perReq: 4, allCold: true, pool: 512, warmup: 32,
		sloLimit: 25 * time.Millisecond,
	},
	{
		name:  "mlp-array",
		why:   "RMC3, 64 MiB tables, 2 shards of 2-device hash arrays; 4 inferences per request, closed loop, 2 connections: MLP dominates; only array workload",
		model: "RMC3", tableMB: 64, shards: 2, arrayDevices: 2, partition: "hash",
		perReq: 4, pool: 256, warmup: 16,
		sloLimit: 30 * time.Millisecond,
	},
	{
		name:  "hot-cache-open",
		why:   "RMC1, 64 MiB tables, 2 shards, 8 MiB EV cache + dedup; 1 inference per request, Poisson 300 req/s, 2 connections: the only cache-hit workload",
		model: "RMC1", tableMB: 64, shards: 2, evCacheMB: 8, dedup: true,
		perReq: 1, open: true, rate: 300, warmup: 1500,
		sloLimit: 20 * time.Millisecond,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// serverArgs returns the rmserve flags for the workload (without -addr).
func (w workload) serverArgs() []string {
	args := []string{"-model", w.model, "-table-mb", strconv.FormatInt(w.tableMB, 10),
		"-shards", strconv.Itoa(w.shards)}
	if w.arrayDevices > 1 {
		args = append(args, "-array-devices", strconv.Itoa(w.arrayDevices), "-partition", w.partition)
	}
	if w.evCacheMB > 0 {
		args = append(args, "-ev-cache-mb", strconv.FormatInt(w.evCacheMB, 10))
	}
	if w.dedup {
		args = append(args, "-dedup")
	}
	return args
}

// config returns the hosted model configuration, sized as rmserve sizes it.
func (w workload) config() (rmssd.ModelConfig, error) {
	cfg, err := rmssd.ModelByName(w.model)
	if err != nil {
		return cfg, err
	}
	cfg.RowsPerTable = cfg.RowsForBudget(w.tableMB << 20)
	return cfg, nil
}

// deviceOptions mirrors rmserve's per-shard device options for shard i.
func (w workload) deviceOptions(i int) rmssd.DeviceOptions {
	parallel := 1
	if w.shards == 1 {
		parallel = 0
	}
	return rmssd.DeviceOptions{
		Parallel:     parallel,
		EVCacheBytes: w.evCacheMB << 20,
		DedupLookups: w.dedup,
		FaultPlan:    rmssd.FaultPlan{Seed: 1 + uint64(i)*0x9e37},
		ArrayDevices: w.arrayDevices,
		Partition:    w.partition,
	}
}

// request is one prepared /infer submission. Inputs, the encoded body and
// the reference predictions are all made before timing starts.
type request struct {
	sparse [][][]int64
	body   []byte
	ref    []float32
	due    time.Duration // open loop: send time relative to the phase start
}

// inputs is a workload's generated traffic.
type inputs struct {
	warmup   []*request
	measured []*request // closed loop: the pool cycled in order; open loop: the schedule
}

// inferBody is the explicit-payload /infer request body. Dense inputs are
// absent, so the server uses zero vectors and so does the reference.
type inferBody struct {
	Sparse [][][]int64 `json:"sparse"`
}

// generate draws the workload's inputs from seed, encodes every body and
// computes every reference prediction. Closed loops draw a pool that the
// measured phase and the warm-up both cycle through; open loops draw a
// warm-up stream followed by a Poisson schedule of rate*seconds requests.
func (w workload) generate(seed uint64, seconds float64) (*inputs, error) {
	cfg, err := w.config()
	if err != nil {
		return nil, err
	}
	tc := rmssd.TraceConfig{Tables: cfg.Tables, Rows: cfg.RowsPerTable, Lookups: cfg.Lookups, Seed: seed}
	if w.allCold {
		tc = tc.WithHotMass(0)
	}
	gen, err := rmssd.NewTrace(tc)
	if err != nil {
		return nil, err
	}
	draw := func(n int) ([]*request, error) {
		out := make([]*request, n)
		for i := range out {
			r := &request{sparse: gen.Batch(w.perReq)}
			if r.body, err = json.Marshal(inferBody{Sparse: r.sparse}); err != nil {
				return nil, err
			}
			out[i] = r
		}
		return out, nil
	}
	in := &inputs{}
	if !w.open {
		if in.measured, err = draw(w.pool); err != nil {
			return nil, err
		}
		for i := 0; i < w.warmup; i++ {
			in.warmup = append(in.warmup, in.measured[i%len(in.measured)])
		}
	} else {
		if in.warmup, err = draw(w.warmup); err != nil {
			return nil, err
		}
		n := int(w.rate * seconds)
		if in.measured, err = draw(n); err != nil {
			return nil, err
		}
		// Given n Poisson arrivals in [0, seconds), the arrival times are n
		// sorted uniform draws; fixing n keeps the offered load identical
		// across seeds.
		rng := rand.New(rand.NewSource(int64(seed ^ 0x5eed0fa11)))
		dues := make([]float64, n)
		for i := range dues {
			dues[i] = rng.Float64() * seconds
		}
		sort.Float64s(dues)
		for i, r := range in.measured {
			r.due = time.Duration(dues[i] * float64(time.Second))
		}
	}
	if err := computeReferences(cfg, append(append([]*request(nil), in.warmup...), in.measured...)); err != nil {
		return nil, err
	}
	return in, nil
}

// computeReferences fills every request's reference predictions with
// Model.Infer on zero dense inputs, split across the host's CPUs. A request
// that appears twice (a cycled pool) is computed once.
func computeReferences(cfg rmssd.ModelConfig, reqs []*request) error {
	m, err := rmssd.BuildModel(cfg)
	if err != nil {
		return err
	}
	zero := make(rmssd.Vector, cfg.DenseDim)
	work := make(chan *request, len(reqs))
	seen := make(map[*request]bool, len(reqs))
	for _, r := range reqs {
		if !seen[r] {
			seen[r] = true
			work <- r
		}
	}
	close(work)
	var wg sync.WaitGroup
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range work {
				r.ref = make([]float32, len(r.sparse))
				for j, sp := range r.sparse {
					r.ref[j] = m.Infer(zero, sp)
				}
			}
		}()
	}
	wg.Wait()
	return nil
}

// predTolerance is the bound internal/core's tests hold device predictions
// to against the host reference.
const predTolerance = 1e-4

// checkPreds compares predictions with the reference.
func checkPreds(got, ref []float32) error {
	if len(got) != len(ref) {
		return fmt.Errorf("%d predictions, want %d", len(got), len(ref))
	}
	for i := range got {
		if d := math.Abs(float64(got[i]) - float64(ref[i])); !(d <= predTolerance) {
			return fmt.Errorf("prediction %d = %v, reference %v", i, got[i], ref[i])
		}
	}
	return nil
}
