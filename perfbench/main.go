// Command perfbench is the repository's benchmark. It runs one workload for
// a fixed time, checks every answer against a reference computed through a
// different plan, and prints one JSON line of metrics: the end-to-end
// metrics by default, or with -trace 1 the per-layer breakdown of a traced
// pass. See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"monsoon/internal/harness"
)

// Workload sizes. plan-cold uses harness.Tiny() unchanged; the rest are the
// per-workload settings README.md gives the reasons for.
const (
	ottSF        = 0.002
	execTPCHSF   = 0.02
	serveTPCHSF  = 0.004
	serveShards  = 4
	serveClients = 2
	// Of every cycleLen requests a serve-mixed client sends, adhocPerCycle
	// are ad-hoc.
	cycleLen      = 10
	adhocPerCycle = 3
	adhocPool     = 12
	// adhocChecks is how many ad-hoc responses per run are re-run cold
	// through the library to check their result_hash.
	adhocChecks = 4
)

// dataSeed generates every catalog and seeds every named query's planner,
// so runs with different workload seeds measure the same work; the workload
// seed fixes query order, the request streams and the ad-hoc statements.
var dataSeed = harness.Tiny().Seed

// maxTuples is the Tiny() tuple budget; library workloads run with it and no
// wall-clock deadline, so answers never depend on speed.
var maxTuples = harness.Tiny().MaxTuples

var workloads = []string{"plan-cold", "exec-warm", "serve-mixed"}

// setupReps is how many times a run sets up its workload; setup_s is the
// median. Later set-ups replace earlier ones.
const setupReps = 3

// setupTimes is one set-up's breakdown in seconds.
type setupTimes struct {
	generate, reference, shard, warm, total float64
}

// metric is one reported number.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// line is the result as the last output line carries it: each metric with
// its value and unit only.
func (r result) line() any {
	type vu struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]vu, len(r.Metrics))
	for n, m := range r.Metrics {
		ms[n] = vu{m.Value, m.Unit}
	}
	return struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]vu `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms}
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloads, ", "))
	seed := flag.Int64("seed", 1, "workload seed: data, queries and request streams derive from it")
	seconds := flag.Float64("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 runs an untraced and a traced half and reports per-layer metrics")
	outDir := flag.String("out", filepath.Join(".bench_build", "results"), "directory for the result record and spans")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	known := false
	for _, w := range workloads {
		known = known || w == *workload
	}
	if !known {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloads, ", "))
		return 2
	}

	rep, err := runWorkload(*workload, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, w := range rep.wrong {
		fmt.Fprintln(os.Stderr, "perfbench: wrong answer:", w)
	}
	rec := map[string]any{
		"environment": stamp(*workload, *seed, *seconds, *trace),
		"result":      rep.result,
		"error_frac":  rep.errorFrac(),
		"wrong":       rep.wrong,
	}
	if rep.checks != nil {
		rec["layer_checks"] = rep.checks
		for name, ok := range rep.checks {
			fmt.Fprintf(os.Stderr, "layer check %s: %t\n", name, ok)
		}
	}
	if err := writeRecord(*outDir, *workload, *seed, *trace, rec, rep.spans); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	printSummary(os.Stderr, rep.result)
	line, err := json.Marshal(rep.result.line())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !rep.result.Correct {
		return 1
	}
	return 0
}

// report is a finished run.
type report struct {
	result result
	wrong  []string
	spans  *spanLog
	// checks says, in a traced run, whether the workload loaded the layer
	// it is meant to load (README.md lists them). They are recorded, not
	// enforced: a change that makes planning cheap legitimately fails the
	// plan-cold one.
	checks map[string]bool
}

func (r *report) errorFrac() float64 {
	return float64(r.result.Failed) / float64(r.result.Attempted)
}

func runWorkload(workload string, seed int64, seconds float64, traced bool) (*report, error) {
	var setups []setupTimes
	var lib *suite
	var srv *served
	var refs map[string]answer
	for i := 0; i < setupReps; i++ {
		var st setupTimes
		var err error
		if workload == "serve-mixed" {
			prev := srv
			srv, st, err = setupServe(seed, prev)
			if prev != nil {
				prev.close()
			}
		} else {
			lib, refs, st, err = setupLibrary(workload, seed, refs)
		}
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, st)
		fmt.Fprintf(os.Stderr, "set-up %d: %.3fs (generate %.3fs, reference %.3fs, shard %.3fs, warm %.3fs)\n",
			i+1, st.total, st.generate, st.reference, st.shard, st.warm)
		runtime.GC()
	}
	if srv != nil {
		defer srv.close()
	}

	rep := &report{}
	var phases []*phase
	if !traced {
		p := runPhase(lib, srv, seconds, 0, nil, nil)
		phases = append(phases, p)
		rep.result.Metrics = endToEnd(p, setups)
	} else {
		// The traced half sits between two untraced quarters, so a drift
		// in speed over the run (the first phase also grows the heap)
		// cancels out of the tracing overhead.
		before := runPhase(lib, srv, seconds/4, 0, nil, nil)
		runtime.GC()
		acc := newLayers()
		rep.spans = &spanLog{}
		tracedP := runPhase(lib, srv, seconds/2, 1, acc, rep.spans)
		runtime.GC()
		after := runPhase(lib, srv, seconds/4, 2, nil, nil)
		untraced := &phase{lat: append(append([]float64(nil), before.lat...), after.lat...)}
		ring := acc
		if srv != nil {
			ring = newLayers()
			if err := srv.foldRing(ring); err != nil {
				return nil, err
			}
		}
		phases = append(phases, before, tracedP, after)
		rep.result.Metrics = perLayer(acc, ring, untraced, tracedP, setups)
		rep.checks = layerChecks(workload, rep.result.Metrics, mean(tracedP.lat))
	}
	for _, p := range phases {
		rep.result.Attempted += p.attempted
		rep.result.Failed += p.failed
		rep.wrong = append(rep.wrong, p.wrong...)
	}
	rep.result.Correct = len(rep.wrong) == 0
	return rep, nil
}

// runPhase runs one timed phase of whichever workload was set up.
func runPhase(lib *suite, srv *served, seconds float64, phaseNo int, acc *layers, log *spanLog) *phase {
	if srv != nil {
		return runServe(srv, seconds, phaseNo, acc, log)
	}
	return runLibrary(lib, seconds, acc, log)
}

func endToEnd(p *phase, setups []setupTimes) map[string]metric {
	n := p.attempted
	lat := p.lat
	qps := float64(p.correct) / p.d.wall.Seconds()
	if p.byQuery != nil {
		lat = nil
		for _, xs := range p.byQuery {
			lat = append(lat, median(xs))
		}
		qps = median(p.passQPS)
	}
	m := map[string]metric{
		"query_s.p50":           {hdQuantile(lat, 0.50), "s", len(lat)},
		"query_s.p95":           {hdQuantile(lat, 0.95), "s", len(lat)},
		"throughput_qps":        {qps, "1/s", p.correct},
		"success_frac":          {float64(p.correct) / float64(n), "frac", n},
		"alloc_bytes_per_query": {float64(p.d.alloc) / float64(n), "B", n},
		"cpu_s_per_query":       {p.d.cpu.Seconds() / float64(n), "s", n},
		"setup_s":               {setupMedian(setups, func(s setupTimes) float64 { return s.total }), "s", len(setups)},
	}
	if p.correct > 0 {
		m["produced_per_query"] = metric{p.produced / float64(p.correct), "count", p.correct}
	}
	return m
}

// setupMedian is the median over set-ups of one part of their breakdown.
func setupMedian(setups []setupTimes, part func(setupTimes) float64) float64 {
	var xs []float64
	for _, s := range setups {
		xs = append(xs, part(s))
	}
	return median(xs)
}

// perLayer renders the traced phase. acc holds what the benchmark timed
// around public calls; ring holds what was folded from the program's own
// spans (the same accumulator on the library workloads, the daemon's trace
// ring on serve-mixed).
func perLayer(acc, ring *layers, untraced, traced *phase, setups []setupTimes) map[string]metric {
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	q := acc.queries
	m := map[string]metric{
		"core.plan_round_s":           {acc.perQuery(acc.planRound), "s", q},
		"core.execute_round_s":        {acc.perQuery(acc.executeRound), "s", q},
		"core.finalize_s":             {acc.perQuery(acc.finalize), "s", q},
		"core.rounds_per_query":       {acc.perQuery(float64(acc.executes)), "count", q},
		"engine.rows_per_s":           {ratio(acc.produced, acc.executeRound), "1/s", q},
		"engine.sigma_ops_per_query":  {acc.perQuery(float64(acc.sigmaOps)), "count", q},
		"engine.exchange_rows":        {acc.perQuery(acc.exchange), "count", q},
		"mcts.search_s":               {ring.perQuery(ring.searchS), "s", ring.queries},
		"mcts.rollouts_per_s":         {ratio(ring.rollouts, ring.searchS), "1/s", ring.searches},
		"mcts.searches_per_query":     {ring.perQuery(float64(ring.searches)), "count", ring.queries},
		"plancache.hit_ratio":         {ratio(float64(acc.hits), float64(acc.hits+acc.misses)), "frac", acc.hits + acc.misses},
		"plancache.replay_s":          {ratio(acc.replay, float64(acc.replays)), "s", acc.replays},
		"daemon.server_s":             {ratio(acc.serverS, float64(acc.requests)), "s", acc.requests},
		"daemon.overhead_s":           {ratio(acc.overheadS, float64(acc.requests)), "s", acc.requests},
		"daemon.rejected":             {float64(acc.rejected), "count", acc.requests},
		"runtime.gc_cpu_frac":         {traced.d.gcCPUFrac, "frac", 0},
		"heap_peak_bytes":             {traced.heapPeak, "B", 0},
		"runtime.gc_cycles_per_query": {ratio(float64(traced.d.cycles), float64(traced.attempted)), "count", traced.attempted},
		"runtime.sched_wait_p99_s":    {traced.d.schedWaitP99, "s", 0},
		"bench.generate_s":            {setupMedian(setups, func(s setupTimes) float64 { return s.generate }), "s", len(setups)},
		"table.shard_s":               {setupMedian(setups, func(s setupTimes) float64 { return s.shard }), "s", len(setups)},
		"bench.warm_s":                {setupMedian(setups, func(s setupTimes) float64 { return s.warm }), "s", len(setups)},
		"bench.trace_overhead_frac":   {ratio(mean(traced.lat), mean(untraced.lat)) - 1, "frac", traced.attempted},
	}
	if ring != acc {
		// serve-mixed: the daemon runs core.Run itself, so Finalize is
		// timed by its aggregate spans in the ring.
		m["core.finalize_s"] = metric{ring.perQuery(ring.aggregateS), "s", ring.queries}
	}
	for _, k := range engineKinds {
		m["engine."+k+".self_s"] = metric{ring.perQuery(ring.engineSelf[k]), "s", ring.queries}
	}
	return m
}

// layerChecks tests that a traced workload loads the layer it claims to,
// given the traced phase's mean query time.
func layerChecks(workload string, m map[string]metric, queryS float64) map[string]bool {
	v := func(name string) float64 { return m[name].Value }
	switch workload {
	case "plan-cold":
		return map[string]bool{
			"core.plan_round_s >= 0.9 of query time": v("core.plan_round_s") >= 0.9*queryS,
			"plancache.hit_ratio == 0":               v("plancache.hit_ratio") == 0,
		}
	case "exec-warm":
		return map[string]bool{
			"core.execute_round_s >= 0.9 of query time": v("core.execute_round_s") >= 0.9*queryS,
			"plancache.hit_ratio == 1":                  v("plancache.hit_ratio") == 1,
		}
	default:
		return map[string]bool{
			"0 < plancache.hit_ratio < 1": v("plancache.hit_ratio") > 0 && v("plancache.hit_ratio") < 1,
			"daemon.rejected == 0":        v("daemon.rejected") == 0,
		}
	}
}

func printSummary(w *os.File, r result) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "correct=%t attempted=%d failed=%d\n", r.Correct, r.Attempted, r.Failed)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "  %-32s %14.6g %-6s n=%d\n", n, m.Value, m.Unit, m.Samples)
	}
}

// writeRecord writes the run's result record, with its environment stamp,
// and in a traced run the benchmark's spans.
func writeRecord(dir, workload string, seed int64, trace int, rec map[string]any, spans *spanLog) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d-%d", workload, seed, trace, time.Now().UnixNano()))
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", b, 0o644); err != nil {
		return err
	}
	if spans != nil {
		return spans.write(base + "-spans.jsonl")
	}
	return nil
}
