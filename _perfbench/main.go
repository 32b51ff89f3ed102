// Command perfbench measures rmserve end to end over HTTP, and layer by
// layer in a traced run. See README.md; run it through run.sh, which builds
// cmd/rmserve and this program first:
//
//	bash _perfbench/run.sh --workload emb-flash --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the fields
// correct, attempted, failed and metrics. A prediction that disagrees with
// the reference model, or a failed traced-run cross-check, prints
// correct=false and exits 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"rmssd/internal/obs"
)

// heldOutSeed is kept out of tuning: a claimed gain must also hold on it.
const heldOutSeed = 7919

// setupStarts is how many times an untraced run starts the server; setup_s
// is the median of their setup times.
const setupStarts = 9

// twinCap bounds the traced requests replayed on the twin devices; the
// engine and model medians settle well before it.
const twinCap = 600

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	problems  []error           // wrong predictions and cross-check mismatches
	// extra holds figures printed in the metric table only; README.md says
	// why the result line carries none of them.
	extra map[string]metric
}

func (r *report) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// wrong marks the run incorrect.
func (r *report) wrong(err error) {
	r.Correct = false
	r.problems = append(r.problems, err)
}

// config holds the command-line settings.
type config struct {
	workload workload
	seed     uint64
	seconds  float64
	trace    bool
	rmserve  string
	out      string
	setups   int  // server starts; untraced runs use setupStarts
	quiet    bool // omit the run header and metric table
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: emb-flash, mlp-array or hot-cache-open")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 15, "measured seconds")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		bin     = flag.String("rmserve", "", "rmserve binary")
		out     = flag.String("out", ".", "directory for the span JSONL of traced runs")
	)
	flag.Parse()
	w, err := findWorkload(*name)
	if err == nil && *bin == "" {
		err = errors.New("-rmserve is required")
	}
	if err == nil && (*seconds <= 0 || (*trace != 0 && *trace != 1)) {
		err = errors.New("need -seconds > 0 and -trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	rep, err := run(config{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1,
		rmserve: *bin, out: *out, setups: setupStarts})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

// printHeader records the host and the workload's settings with the run.
func printHeader(c config) error {
	w := c.workload
	loop := "closed"
	if w.open {
		loop = "open"
	}
	header := map[string]interface{}{
		"workload": w.name, "why": w.why, "seed": c.seed, "held_out_seed": heldOutSeed,
		"seconds": c.seconds, "trace": c.trace,
		"num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go_version": runtime.Version(),
		"server_flags": w.serverArgs(),
		"client": map[string]interface{}{
			"loop": loop, "connections": connections, "inferences_per_request": w.perReq,
			"all_cold": w.allCold, "rate_per_s": w.rate, "distinct_requests": w.pool,
			"warmup_requests": w.warmup, "slo_limit_ms": ms(w.sloLimit),
		},
	}
	line, err := json.Marshal(map[string]interface{}{"run": header})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func run(c config) (*report, error) {
	if !c.quiet {
		if err := printHeader(c); err != nil {
			return nil, err
		}
	}
	in, err := c.workload.generate(c.seed, c.seconds)
	if err != nil {
		return nil, err
	}
	rep := &report{Correct: true, extra: make(map[string]metric)}
	if c.trace {
		err = runTraced(c, in, rep)
	} else {
		err = runUntraced(c, in, rep)
	}
	if err != nil {
		return nil, err
	}
	for i, p := range rep.problems {
		if i == 10 {
			fmt.Fprintf(os.Stderr, "perfbench: ... %d more\n", len(rep.problems)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "perfbench:", p)
	}
	if !c.quiet {
		rep.extra["fail_ratio"] = metric{Value: float64(rep.Failed) / float64(max(rep.Attempted, 1)), Unit: "ratio"}
		for _, set := range []map[string]metric{rep.Metrics, rep.extra} {
			names := make([]string, 0, len(set))
			for name := range set {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				fmt.Printf("%-30s %14.6g %s\n", name, set[name].Value, set[name].Unit)
			}
		}
	}
	return rep, nil
}

// startServers starts the server n times, keeping the last one running,
// and returns the setup time of every start.
func startServers(c config, n int) (*server, []time.Duration, error) {
	var (
		srv    *server
		setups []time.Duration
	)
	for k := 0; k < n; k++ {
		srv.stop()
		var err error
		if srv, err = startServer(c.rmserve, c.workload.serverArgs()); err != nil {
			return nil, nil, err
		}
		setups = append(setups, srv.setup)
	}
	return srv, setups, nil
}

// warm sends the warm-up traffic; any failure there aborts the run.
func warm(w workload, in *inputs, submit submitFunc, rep *report) error {
	results := phase{reqs: in.warmup}.run(submit)
	for _, r := range results {
		if r.err != nil {
			return fmt.Errorf("warm-up submission %d: %w", r.id, r.err)
		}
		if r.wrong != nil {
			rep.wrong(r.wrong)
		}
	}
	return nil
}

// measuredPhases splits the measured traffic into n consecutive phases of
// equal length: by duration for a closed loop, by due time for an open one.
func measuredPhases(c config, in *inputs, n int) []phase {
	w := c.workload
	span := time.Duration(c.seconds / float64(n) * float64(time.Second))
	phases := make([]phase, n)
	for k := range phases {
		// Submission IDs stay unique across the warm-up and every phase.
		p := phase{firstID: int64(k+1) << 20}
		if !w.open {
			p.reqs, p.dur = in.measured, span
		} else {
			p.open = true
			lo, hi := span*time.Duration(k), span*time.Duration(k+1)
			for _, r := range in.measured {
				if r.due >= lo && (r.due < hi || k == n-1) {
					cp := *r
					cp.due -= lo
					p.reqs = append(p.reqs, &cp)
				}
			}
		}
		phases[k] = p
	}
	return phases
}

func runUntraced(c config, in *inputs, rep *report) error {
	w := c.workload
	srv, setups, err := startServers(c, c.setups)
	if err != nil {
		return err
	}
	defer srv.stop()
	client := newHTTPClient()
	defer client.CloseIdleConnections()
	submit := httpSubmit(client, srv.base, nil)
	if err := warm(w, in, submit, rep); err != nil {
		return err
	}
	before, err := srv.stats(client)
	if err != nil {
		return err
	}
	cpu0, err := srv.cpuTime()
	if err != nil {
		return err
	}
	measured := measuredPhases(c, in, 1)[0]
	results := measured.run(submit)
	cpu1, err := srv.cpuTime()
	if err != nil {
		return err
	}
	after, err := srv.stats(client)
	if err != nil {
		return err
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return err
	}
	qps, err := simQPS(before, after)
	if err != nil {
		return err
	}
	setup, _, _, _ := obs.Quantiles(setups)
	rep.set("setup_s", setup.Seconds(), "s")
	rep.set("sim_qps", qps, "1/s")
	rep.set("server_rss_mb", rss, "MB")
	rep.set("server_cpu_ms_per_infer", ms(cpu1-cpu0)/float64(max(after.Inferences-before.Inferences, 1)), "ms")
	endToEnd(rep, w, results)
	return nil
}

// endToEnd accounts a measured phase and sets the client-side metrics. It
// returns infer_per_s.
func endToEnd(rep *report, w workload, results []result) float64 {
	var (
		wall, sim []time.Duration
		elapsed   time.Duration
	)
	correct, inSLO := 0, 0
	for _, r := range results {
		rep.Attempted++
		elapsed = max(elapsed, r.end)
		switch {
		case r.err != nil:
			rep.Failed++
		case r.wrong != nil:
			rep.wrong(r.wrong)
		default:
			correct += len(r.rep.preds)
			wall = append(wall, r.latency())
			sim = append(sim, r.rep.sim)
			if r.latency() <= w.sloLimit {
				inSLO++
			}
		}
	}
	wallP50, _, wallP99, _ := obs.Quantiles(wall)
	simP50, _, simP99, _ := obs.Quantiles(sim)
	ips := float64(correct) / elapsed.Seconds()
	rep.set("infer_per_s", ips, "1/s")
	rep.set("wall_p50_ms", ms(wallP50), "ms")
	rep.set("sim_p99_us", us(simP99), "us")
	rep.set("slo_ratio", float64(inSLO)/float64(max(len(results), 1)), "ratio")
	rep.extra["wall_p99_ms"] = metric{Value: ms(wallP99), Unit: "ms"}
	rep.extra["sim_p50_us"] = metric{Value: us(simP50), Unit: "us"}
	return ips
}

func runTraced(c config, in *inputs, rep *report) error {
	w := c.workload
	srv, _, err := startServers(c, 1)
	if err != nil {
		return err
	}
	defer srv.stop()
	client := newHTTPClient()
	defer client.CloseIdleConnections()
	if err := warm(w, in, httpSubmit(client, srv.base, nil), rep); err != nil {
		return err
	}

	// HTTP leg: an untraced phase, then a traced one of the same length.
	phases := measuredPhases(c, in, 2)
	untraced := phases[0].run(httpSubmit(client, srv.base, nil))
	before, err := srv.stats(client)
	if err != nil {
		return err
	}
	rec := newRecorder()
	traced := phases[1].run(httpSubmit(client, srv.base, rec))
	after, err := srv.stats(client)
	if err != nil {
		return err
	}
	srv.stop()
	scratch := &report{Correct: true, extra: make(map[string]metric)}
	ips0 := endToEnd(scratch, w, untraced)
	ips1 := endToEnd(scratch, w, traced)
	rep.Attempted, rep.Failed = scratch.Attempted, scratch.Failed
	for _, p := range scratch.problems {
		rep.wrong(p)
	}

	// In-process leg: the same warm-up, then the traced sequence.
	st, err := newStack(w)
	if err != nil {
		return err
	}
	defer st.close()
	if err := warm(w, in, st.submit, rep); err != nil {
		return err
	}
	seq := make([]*request, len(traced))
	for i, r := range traced {
		seq[i] = r.req
	}
	st.rec = rec
	inproc := phase{reqs: seq, open: w.open, firstID: phases[1].firstID}.run(st.submit)
	st.close()
	for _, r := range inproc {
		if r.err != nil {
			return fmt.Errorf("in-process submission %d: %w", r.id, r.err)
		}
		if r.wrong != nil {
			rep.wrong(fmt.Errorf("in-process: %w", r.wrong))
		}
	}
	// With no cache, a device batch's simulated latency depends only on its
	// inputs; when every request is its own batch, both legs must agree.
	if w.evCacheMB == 0 && st.nbatch <= w.perReq {
		crossCheck(rep, traced, inproc)
	}
	tw, err := twinLeg(w, append(append([]*request(nil), in.warmup...), seq[:min(len(seq), twinCap)]...), len(in.warmup))
	if err != nil {
		return err
	}

	spans := rec.snapshot()
	path := filepath.Join(c.out, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, c.seed))
	if err := writeJSONL(path, spans); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(spans), path)
	perLayer(rep, w, traced, spans, st.batches(), tw, before, after)
	rep.set("bench.trace_overhead", ips1/ips0, "ratio")
	return nil
}

// crossCheck requires the in-process replay to reproduce the HTTP leg's
// predictions and simulated latencies request by request.
func crossCheck(rep *report, httpRes, inproc []result) {
	for i, h := range httpRes {
		if h.err != nil {
			continue
		}
		p := inproc[i]
		if p.rep.sim != h.rep.sim {
			rep.wrong(fmt.Errorf("cross-check submission %d: simulated latency %v in-process, %v over HTTP", h.id, p.rep.sim, h.rep.sim))
			continue
		}
		for j := range h.rep.preds {
			if p.rep.preds[j] != h.rep.preds[j] {
				rep.wrong(fmt.Errorf("cross-check submission %d: prediction %d %v in-process, %v over HTTP", h.id, j, p.rep.preds[j], h.rep.preds[j]))
				break
			}
		}
	}
}

// perLayer sets the traced run's per-layer metrics.
func perLayer(rep *report, w workload, traced []result, spans []span, batches []batchRecord, tw *twinMetrics, before, after *stats) {
	p50 := func(d []time.Duration) time.Duration {
		v, _, _, _ := obs.Quantiles(append([]time.Duration(nil), d...))
		return v
	}
	rt, rs := p50(durations(spans, "http.roundtrip")), p50(durations(spans, "Router.Submit"))
	rep.set("rmserve.edge_ms", ms(rt-rs), "ms")

	var body, batch, coalesced float64
	var stages [5][]time.Duration
	var late []time.Duration
	ok := 0
	for _, r := range traced {
		body += float64(len(r.req.body))
		late = append(late, r.genLate)
		if r.err != nil {
			continue
		}
		ok++
		batch += float64(r.rep.batch)
		coalesced += float64(r.rep.coalesced)
		for i := range stages {
			stages[i] = append(stages[i], r.rep.stages[i])
		}
	}
	rep.set("rmserve.req_kb", body/1024/float64(max(len(traced), 1)), "KiB")
	rep.set("serving.admit_ms", ms(p50(selfTimes(spans, "Router.Submit"))), "ms")
	rep.set("serving.queue_ms", ms(p50(selfTimes(spans, "Pool.Submit"))), "ms")
	rep.set("serving.batch_infers", batch/float64(max(ok, 1)), "count")
	rep.set("serving.coalesced", coalesced/float64(max(ok, 1)), "count")
	for i, name := range stageNames {
		rep.set("core.sim_"+name+"_us", us(p50(stages[i])), "us")
	}
	_, _, lateP99, _ := obs.Quantiles(late)
	rep.set("client.gen_late_p99_ms", ms(lateP99), "ms")

	var host []time.Duration
	var hostNs, simUs, xfer, partials float64
	for _, b := range batches {
		host = append(host, b.host)
		hostNs += float64(b.host.Nanoseconds())
		simUs += us(b.sim)
		xfer += float64(b.transferBytes)
		partials += float64(b.partials)
	}
	nb := float64(max(len(batches), 1))
	rep.set("core.infer_batch_ms", ms(p50(host)), "ms")
	rep.set("core.host_ns_per_sim_us", hostNs/simUs, "ns/us")
	rep.set("array.transfer_kb", xfer/1024/nb, "KiB")
	rep.set("array.partials", partials/nb, "count")

	pool, timing := p50(tw.pool), p50(tw.poolTiming)
	rep.set("engine.pool_ms", ms(pool), "ms")
	rep.set("engine.pool_timing_ms", ms(timing), "ms")
	rep.set("engine.materialize_ms", ms(pool-timing), "ms")
	rep.set("engine.mlp_ms", ms(p50(tw.mlp)), "ms")
	rep.set("model.ev_synth_ns", float64(tw.evSynth.Nanoseconds())/float64(max(tw.evCalls, 1)), "ns")

	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	inf := after.Inferences - before.Inferences
	rep.set("engine.dedup_ratio", ratio(after.DedupHits-before.DedupHits, after.Lookups-before.Lookups), "ratio")
	hits := after.EVCacheHits - before.EVCacheHits
	rep.set("evcache.hit_ratio", ratio(hits, hits+after.EVCacheMisses-before.EVCacheMisses), "ratio")
	rep.set("evcache.evictions_per_infer", ratio(after.EVCacheEvictions-before.EVCacheEvictions, inf), "count")
	rep.set("flash.vector_reads_per_infer", ratio(after.VectorReads-before.VectorReads, inf), "count")
	rep.set("flash.kb_per_infer", ratio(after.BytesTransferred-before.BytesTransferred, inf)/1024, "KiB")
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
