package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sync"
	"time"

	"monsoon/internal/bench/imdb"
	"monsoon/internal/bench/ott"
	"monsoon/internal/bench/tpch"
	"monsoon/internal/bench/udf"
	"monsoon/internal/core"
	"monsoon/internal/engine"
	"monsoon/internal/harness"
	"monsoon/internal/obs"
	"monsoon/internal/plancache"
	"monsoon/internal/query"
	"monsoon/internal/randx"
	"monsoon/internal/table"
)

// answer is a query's row count and final aggregate.
type answer struct {
	Rows  int
	Value float64
}

// matches compares two answers. Rows must agree exactly; aggregates are
// summed in plan-dependent row order, so they agree to rounding only.
func (a answer) matches(b answer) bool {
	if a.Rows != b.Rows {
		return false
	}
	d := math.Abs(a.Value - b.Value)
	return d <= 1e-9*math.Max(1, math.Max(math.Abs(a.Value), math.Abs(b.Value)))
}

// reference computes q's answer through a different plan than the one under
// test: the full-statistics optimizer's plan on a serial engine, with no
// budget.
func reference(q *query.Query, cat *table.Catalog) (answer, error) {
	out := harness.Postgres{Parallelism: 1}.Run(harness.QuerySpec{Q: q, Cat: cat}, 0, 0, 0)
	if out.Err != nil || out.TimedOut {
		return answer{}, fmt.Errorf("reference for %s: err=%v timed out=%t", q.Name, out.Err, out.TimedOut)
	}
	return answer{Rows: out.Rows, Value: out.Value}, nil
}

// libQuery is one library query bound to its engine, seed and reference.
type libQuery struct {
	q    *query.Query
	cat  *table.Catalog
	eng  *engine.Engine
	seed int64
	ref  answer
}

// suite is a library workload after set-up: the queries of one pass and,
// for exec-warm, the plan cache the warm pass filled.
type suite struct {
	queries []*libQuery
	cache   *plancache.Cache
}

// source is a generated catalog and the queries that run on it.
type source struct {
	cat     *table.Catalog
	queries []*query.Query
}

// generate builds a workload's catalogs. They come from the fixed dataSeed,
// not the workload seed: see README.md.
func generate(workload string) []source {
	seed := dataSeed
	tiny := harness.Tiny()
	switch workload {
	case "plan-cold":
		var srcs []source
		srcs = append(srcs, source{tpch.Generate(tpch.Config{ScaleFactor: tiny.TPCHSF, Seed: seed}), tpch.Queries()})
		srcs = append(srcs, source{
			imdb.Generate(imdb.Config{Titles: tiny.IMDBTitles, Bootstrap: tiny.IMDBBootstrap, Seed: seed}),
			imdb.Queries(tiny.IMDBQueryCount, seed),
		})
		u := udf.Generate(udf.Config{Titles: tiny.UDFTitles, ScaleFactor: tiny.UDFSF, Seed: seed})
		srcs = append(srcs, source{u.IMDBCat, u.IMDB}, source{u.TPCHCat, u.TPCH})
		return srcs
	case "exec-warm":
		var oq []*query.Query
		for _, c := range ott.Queries() {
			oq = append(oq, c.Query)
		}
		return []source{
			{ott.Generate(ott.Config{ScaleFactor: ottSF, Seed: seed}), oq},
			{tpch.Generate(tpch.Config{ScaleFactor: execTPCHSF, Seed: seed}), tpch.Queries()},
		}
	}
	panic("unknown library workload " + workload)
}

// setupLibrary generates the data and, on exec-warm, fills a plan cache
// with one untimed pass. The workload seed fixes the order the queries run
// in. refs holds the reference answers by query name; when it is nil they
// are computed, outside the set-up time since they are the checker's cost
// and not the program's, and returned for later set-ups to reuse.
func setupLibrary(workload string, seed int64, refs map[string]answer) (*suite, map[string]answer, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	srcs := generate(workload)
	st.generate = time.Since(t0).Seconds()

	s := &suite{}
	for _, src := range srcs {
		eng := engine.New(src.cat)
		for _, q := range src.queries {
			s.queries = append(s.queries, &libQuery{
				q: q, cat: src.cat, eng: eng, seed: randx.Derive(dataSeed, "perfbench/"+q.Name),
			})
		}
	}
	randx.New(randx.Derive(seed, "perfbench/order")).Shuffle(len(s.queries), func(i, j int) {
		s.queries[i], s.queries[j] = s.queries[j], s.queries[i]
	})
	if refs == nil {
		t := time.Now()
		var err error
		if refs, err = references(s.queries); err != nil {
			return nil, nil, st, err
		}
		st.reference = time.Since(t).Seconds()
	}
	for _, lq := range s.queries {
		lq.ref = refs[lq.q.Name]
	}

	if workload == "exec-warm" {
		t := time.Now()
		s.cache = plancache.New(0)
		for _, lq := range s.queries {
			if out := runQuery(lq, s.cache, nil, nil); out.err != nil {
				return nil, nil, st, fmt.Errorf("warm pass: %w", out.err)
			}
		}
		st.warm = time.Since(t).Seconds()
	}
	st.total = time.Since(t0).Seconds() - st.reference
	return s, refs, st, nil
}

// references computes every query's reference answer, on as many
// goroutines as there are CPUs.
func references(qs []*libQuery) (map[string]answer, error) {
	refs := make([]answer, len(qs))
	errs := make([]error, len(qs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				refs[i], errs[i] = reference(qs[i].q, qs[i].cat)
			}
		}()
	}
	for i := range qs {
		next <- i
	}
	close(next)
	wg.Wait()
	out := make(map[string]answer, len(qs))
	for i, lq := range qs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		if _, dup := out[lq.q.Name]; dup {
			return nil, fmt.Errorf("two queries named %s", lq.q.Name)
		}
		out[lq.q.Name] = refs[i]
	}
	return out, nil
}

// outcome is one query run.
type outcome struct {
	lat          time.Duration
	res          *core.Result
	err          error
	budget       bool // err is a tuple-budget overrun
	fingerprint  uint64
	planRound    time.Duration
	executeRound time.Duration
	finalize     time.Duration
	replay       time.Duration
	replays      int
}

// runQuery drives one query through the core.Session phases, timing each
// public call. With log set, every call is recorded as a span under one
// query span; with sink set, the program's own spans flow into it.
func runQuery(lq *libQuery, cache *plancache.Cache, log *spanLog, sink obs.EventSink) outcome {
	var out outcome
	root := log.id()
	call := func(name string, start time.Time) time.Duration {
		end := time.Now()
		log.add(span{ID: log.id(), Parent: root, Query: root, Name: name, Start: start, End: end})
		return end.Sub(start)
	}
	start := time.Now()
	s := core.NewSession(lq.q, lq.eng, &engine.Budget{MaxTuples: maxTuples}, core.Config{
		Iterations: harness.Tiny().MCTSIterations,
		Seed:       lq.seed,
		Cache:      cache,
		Sink:       sink,
	})
	call("core.NewSession", start)
	out.err = func() error {
		for {
			t := time.Now()
			hits := s.Result().CacheHits
			execute, err := s.PlanRound()
			d := call("core.PlanRound", t)
			out.planRound += d
			if s.Result().CacheHits > hits {
				out.replay += d
				out.replays++
			}
			if err != nil {
				return err
			}
			if !execute {
				break
			}
			t = time.Now()
			err = s.ExecuteRound()
			out.executeRound += call("core.ExecuteRound", t)
			if err != nil {
				return err
			}
		}
		t := time.Now()
		_, err := s.Finalize()
		out.finalize = call("core.Finalize", t)
		return err
	}()
	s.Close()
	end := time.Now()
	log.add(span{ID: root, Query: root, Name: "query " + lq.q.Name, Start: start, End: end})
	out.lat = end.Sub(start)
	out.res = s.Result()
	out.budget = errors.Is(out.err, engine.ErrBudget)
	if out.err == nil {
		out.fingerprint = fingerprint(lq.q.Name, out.res)
	}
	return out
}

// fingerprint digests everything a run of one (query, seed) must repeat:
// its answer, the objects it produced, and its result rows in order.
func fingerprint(name string, res *core.Result) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%x|%x|%s", name, res.Rows, math.Float64bits(res.Value),
		math.Float64bits(res.Produced), resultHash(res.Output))
	return h.Sum64()
}

// resultHash renders a relation the way the daemon's result_hash does:
// FNV-1a over every value's rendered form, with unit and record separators.
func resultHash(rel *table.Relation) string {
	h := fnv.New64a()
	if rel != nil {
		for _, row := range rel.Rows {
			for _, v := range row {
				_, _ = h.Write([]byte(v.String()))
				_, _ = h.Write([]byte{0x1f})
			}
			_, _ = h.Write([]byte{0x1e})
		}
	}
	return fmt.Sprintf("fnv1a:%016x", h.Sum64())
}

// phase is what one timed phase measured.
type phase struct {
	lat       []float64 // seconds, one per attempted query
	attempted int
	failed    int
	produced  float64 // summed over correct queries
	correct   int
	wrong     []string
	d         delta
	heapPeak  float64
	// On the library workloads, each query's latencies (one per pass) and
	// each pass's throughput. The reported latency percentiles are taken
	// over the queries' median latencies, and throughput is the median
	// pass's: a query's time repeats in every pass, so the percentiles
	// would otherwise land between the extremes of two queries' samples,
	// and one slow pass on a shared machine would move them.
	byQuery [][]float64
	passQPS []float64
	// prints are the first pass's answer fingerprints, in query order.
	prints []uint64
}

// runLibrary runs whole passes over the suite, back to back from one caller,
// until at least `seconds` have elapsed. Whole passes keep every metric an
// average over the same query mix, and make produced_per_query exact. With acc set, the phase is traced and folded into acc.
func runLibrary(s *suite, seconds float64, acc *layers, log *spanLog) *phase {
	p := &phase{}
	hs := startHeapSampler(0)
	before := readSnapshot()
	for pass := 0; pass == 0 || time.Since(before.wall).Seconds() < seconds; pass++ {
		passStart, passCorrect := time.Now(), p.correct
		for i, lq := range s.queries {
			var sink obs.EventSink
			var col *obs.Collector
			if acc != nil {
				col = &obs.Collector{}
				sink = col
			}
			out := runQuery(lq, s.cache, log, sink)
			p.attempted++
			p.lat = append(p.lat, out.lat.Seconds())
			if pass == 0 {
				p.prints = append(p.prints, out.fingerprint)
				p.byQuery = append(p.byQuery, nil)
			}
			p.byQuery[i] = append(p.byQuery[i], out.lat.Seconds())
			switch {
			case out.err != nil:
				p.failed++
				if !out.budget {
					p.wrong = append(p.wrong, fmt.Sprintf("%s: %v", lq.q.Name, out.err))
				}
			case !lq.ref.matches(answer{out.res.Rows, out.res.Value}):
				p.failed++
				p.wrong = append(p.wrong, fmt.Sprintf("%s: got rows=%d value=%v, reference rows=%d value=%v",
					lq.q.Name, out.res.Rows, out.res.Value, lq.ref.Rows, lq.ref.Value))
			default:
				p.correct++
				p.produced += out.res.Produced
			}
			if acc != nil {
				acc.queries++
				acc.planRound += out.planRound.Seconds()
				acc.executeRound += out.executeRound.Seconds()
				acc.finalize += out.finalize.Seconds()
				acc.replay += out.replay.Seconds()
				acc.replays += out.replays
				acc.hits += out.res.CacheHits
				acc.misses += out.res.CacheMisses
				acc.produced += out.res.Produced
				acc.executes += out.res.Executes
				acc.sigmaOps += out.res.SigmaOps
				acc.foldSpans(col.Spans)
			}
		}
		p.passQPS = append(p.passQPS, float64(p.correct-passCorrect)/time.Since(passStart).Seconds())
		hs.mark()
	}
	p.d = diff(before, readSnapshot())
	p.heapPeak = hs.Stop()
	return p
}
