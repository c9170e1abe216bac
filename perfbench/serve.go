package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"monsoon/internal/bench/tpch"
	"monsoon/internal/core"
	"monsoon/internal/daemon"
	"monsoon/internal/engine"
	"monsoon/internal/harness"
	"monsoon/internal/obs"
	"monsoon/internal/randx"
	"monsoon/internal/sqlish"
	"monsoon/internal/stats"
	"monsoon/internal/table"
)

// adhocTemplates are the shapes of serve-mixed's ad-hoc statements; each %s
// or %d is filled from a seeded generator. They join three to five TPC-H
// tables, so planning them cold costs a few MCTS calls.
var adhocTemplates = []func(r *rand.Rand) string{
	func(r *rand.Rand) string {
		return fmt.Sprintf(`SELECT COUNT(*) FROM customer c, orders o, lineitem l
			WHERE c.c_custkey = o.o_custkey AND l.l_orderkey = o.o_orderkey
			AND c.c_mktsegment = '%s' AND YearOf(o.o_orderdate) = %d`,
			pick(r, "AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"), 1992+r.Intn(7))
	},
	func(r *rand.Rand) string {
		return fmt.Sprintf(`SELECT COUNT(*) FROM customer c, orders o, lineitem l, supplier s, nation n
			WHERE c.c_custkey = o.o_custkey AND l.l_orderkey = o.o_orderkey
			AND l.l_suppkey = s.s_suppkey AND s.s_nationkey = n.n_nationkey AND n.n_name = '%s'`,
			pick(r, "FRANCE", "GERMANY", "CHINA", "BRAZIL", "JAPAN", "KENYA"))
	},
	func(r *rand.Rand) string {
		return fmt.Sprintf(`SELECT COUNT(*) FROM part p, partsupp ps, supplier s, nation n
			WHERE ps.ps_partkey = p.p_partkey AND ps.ps_suppkey = s.s_suppkey
			AND s.s_nationkey = n.n_nationkey AND p.p_size = %d`, 1+r.Intn(50))
	},
	func(r *rand.Rand) string {
		return fmt.Sprintf(`SELECT SUM(l.l_quantity) FROM orders o, lineitem l, part p
			WHERE l.l_orderkey = o.o_orderkey AND l.l_partkey = p.p_partkey
			AND o.o_orderpriority = '%s' AND YearOf(l.l_shipdate) = %d`,
			pick(r, "1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"), 1992+r.Intn(7))
	},
}

func pick(r *rand.Rand, xs ...string) string { return xs[r.Intn(len(xs))] }

type adhocStmt struct {
	sql string
	ref answer
}

// served is serve-mixed after set-up: an in-process daemon behind a
// loopback listener, warmed on the named queries, plus everything needed to
// check its answers.
type served struct {
	srv      *daemon.Server
	ts       *httptest.Server
	client   *http.Client
	named    []string
	namedRef map[string]answer
	// namedHash is each named query's result_hash from the warm pass: the
	// (query, seed) reference every later response must repeat.
	namedHash map[string]string
	adhoc     []adhocStmt
	// eng runs on the same sharded layout as the daemon, for re-running
	// ad-hoc requests cold through the library.
	eng  *engine.Engine
	seed int64
}

func (s *served) close() {
	s.ts.Close()
	s.client.CloseIdleConnections()
}

func serveScale() harness.Scale {
	sc := harness.Tiny()
	sc.TPCHSF = serveTPCHSF
	return sc
}

// setupServe generates and shards the data, starts the daemon and warms
// its plan cache on the named queries. The reference answers are computed
// on the first set-up only, outside the set-up time; later set-ups pass the
// previous one in as prev and reuse them.
func setupServe(seed int64, prev *served) (*served, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	cat := tpch.Generate(tpch.Config{ScaleFactor: serveTPCHSF, Seed: dataSeed})
	st.generate = time.Since(t0).Seconds()

	s := &served{namedHash: map[string]string{}, seed: seed}
	if prev != nil {
		s.named, s.namedRef, s.adhoc = prev.named, prev.namedRef, prev.adhoc
	} else {
		t := time.Now()
		if err := s.references(cat); err != nil {
			return nil, st, err
		}
		st.reference = time.Since(t).Seconds()
	}

	t := time.Now()
	cat.Shard(serveShards)
	st.shard = time.Since(t).Seconds()
	s.eng = engine.New(cat)

	srv, err := daemon.New(daemon.Config{Bench: "tpch", Scale: serveScale(), Seed: dataSeed, Shards: serveShards})
	if err != nil {
		return nil, st, err
	}
	s.srv = srv
	s.ts = httptest.NewServer(srv.Handler())
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}}

	t = time.Now()
	for _, name := range s.named {
		resp, _, err := s.post(daemon.QueryRequest{Query: name})
		if err != nil {
			s.close()
			return nil, st, fmt.Errorf("warm %s: %w", name, err)
		}
		if !s.namedRef[name].matches(answer{resp.Rows, resp.Aggregate}) {
			s.close()
			return nil, st, fmt.Errorf("warm %s: rows=%d aggregate=%v, reference %+v", name, resp.Rows, resp.Aggregate, s.namedRef[name])
		}
		s.namedHash[name] = resp.ResultHash
	}
	st.warm = time.Since(t).Seconds()
	st.total = time.Since(t0).Seconds() - st.reference
	return s, st, nil
}

// references computes the named queries' answers and draws the ad-hoc
// statements, with theirs, on the unsharded catalog. The statements come
// from dataSeed like the data: with a pool drawn from the workload seed,
// the pool's mix of cheap and costly statements moved throughput by up to
// 14% between seeds.
func (s *served) references(cat *table.Catalog) error {
	s.namedRef = map[string]answer{}
	for _, q := range tpch.Queries() {
		ref, err := reference(q, cat)
		if err != nil {
			return err
		}
		s.named = append(s.named, q.Name)
		s.namedRef[q.Name] = ref
	}
	r := randx.New(randx.Derive(dataSeed, "perfbench/adhoc"))
	reg := sqlish.NewRegistry()
	for i := 0; i < adhocPool; i++ {
		sql := adhocTemplates[i%len(adhocTemplates)](r)
		q, err := sqlish.Parse("adhoc", sql, reg)
		if err != nil {
			return fmt.Errorf("ad-hoc statement %d: %w", i, err)
		}
		ref, err := reference(q, cat)
		if err != nil {
			return err
		}
		s.adhoc = append(s.adhoc, adhocStmt{sql: sql, ref: ref})
	}
	return nil
}

// post sends one /query request and returns the decoded 200 response; any
// other status is an error carrying it.
func (s *served) post(req daemon.QueryRequest) (*daemon.QueryResponse, int, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, 0, err
	}
	hr, err := s.client.Post(s.ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer hr.Body.Close()
	var resp daemon.QueryResponse
	if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
		return nil, hr.StatusCode, fmt.Errorf("status %d: %w", hr.StatusCode, err)
	}
	if hr.StatusCode != http.StatusOK {
		return &resp, hr.StatusCode, fmt.Errorf("status %d: %s", hr.StatusCode, resp.Error)
	}
	return &resp, hr.StatusCode, nil
}

// request is one timed round trip.
type request struct {
	adhoc  int // index into adhoc, or -1 for a named query
	name   string
	seed   int64
	lat    time.Duration
	status int
	resp   *daemon.QueryResponse
	err    error
}

// runServe drives the daemon from serveClients closed-loop clients until
// `seconds` have elapsed. Each client sends cycles of cycleLen requests in
// a seeded order: adhocPerCycle ad-hoc statements with a fresh per-request
// seed (plan-cache misses), the rest named queries the warm pass cached.
// Both kinds are taken round-robin from seeded permutations, so every run
// sends the same mix. phaseNo keeps the request streams of
// an untraced and a traced phase of one run apart.
func runServe(s *served, seconds float64, phaseNo int, acc *layers, log *spanLog) *phase {
	p := &phase{}
	counter := func(name string) int64 { return s.srv.Registry().Counter(name).Value() }
	exchange0, sigma0, rejected0 := counter("monsoon.exchange.rows"), counter("monsoon.sigma_ops"), counter("monsoond.rejected")
	hs := startHeapSampler(time.Second)
	before := readSnapshot()
	deadline := before.wall.Add(time.Duration(seconds * float64(time.Second)))
	perClient := make([][]request, serveClients)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := randx.New(randx.Derive(s.seed, fmt.Sprintf("perfbench/phase%d/client%d", phaseNo, c)))
			named, adhoc := r.Perm(len(s.named)), r.Perm(len(s.adhoc))
			var slots []bool // the rest of the current cycle; true = ad-hoc
			var nn, na int
			for n := 0; time.Now().Before(deadline); n++ {
				if len(slots) == 0 {
					slots = make([]bool, cycleLen)
					for i := 0; i < adhocPerCycle; i++ {
						slots[i] = true
					}
					r.Shuffle(cycleLen, func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
				}
				rq := request{adhoc: -1}
				var req daemon.QueryRequest
				if slots[0] {
					rq.adhoc = adhoc[na%len(adhoc)]
					na++
					rq.name = fmt.Sprintf("adhoc-%d", rq.adhoc)
					rq.seed = randx.Derive(s.seed, fmt.Sprintf("perfbench/phase%d/client%d/req%d", phaseNo, c, n))
					req = daemon.QueryRequest{SQL: s.adhoc[rq.adhoc].sql, Name: rq.name, Seed: &rq.seed}
				} else {
					rq.name = s.named[named[nn%len(named)]]
					nn++
					req = daemon.QueryRequest{Query: rq.name}
				}
				slots = slots[1:]
				id := log.id()
				start := time.Now()
				rq.resp, rq.status, rq.err = s.post(req)
				end := time.Now()
				log.add(span{ID: id, Query: id, Name: "daemon.Server.Handler POST /query " + rq.name, Start: start, End: end})
				rq.lat = end.Sub(start)
				perClient[c] = append(perClient[c], rq)
			}
		}(c)
	}
	wg.Wait()
	p.d = diff(before, readSnapshot())
	p.heapPeak = hs.Stop()

	var all []request
	for _, rs := range perClient {
		all = append(all, rs...)
	}
	s.verifyAdhoc(all, adhocChecks)
	for _, rq := range all {
		p.attempted++
		p.lat = append(p.lat, rq.lat.Seconds())
		if rq.err != nil {
			p.failed++
			if rq.status != http.StatusGatewayTimeout && rq.status != http.StatusTooManyRequests {
				p.wrong = append(p.wrong, fmt.Sprintf("%s: %v", rq.name, rq.err))
			}
			continue
		}
		got := answer{rq.resp.Rows, rq.resp.Aggregate}
		var why string
		if rq.adhoc >= 0 {
			if ref := s.adhoc[rq.adhoc].ref; !ref.matches(got) {
				why = fmt.Sprintf("got %+v, reference %+v", got, ref)
			}
		} else if ref := s.namedRef[rq.name]; !ref.matches(got) {
			why = fmt.Sprintf("got %+v, reference %+v", got, ref)
		} else if h := s.namedHash[rq.name]; rq.resp.ResultHash != h {
			why = fmt.Sprintf("result_hash %s, warm pass saw %s", rq.resp.ResultHash, h)
		}
		if why != "" {
			p.failed++
			p.wrong = append(p.wrong, rq.name+": "+why)
			continue
		}
		p.correct++
		p.produced += rq.resp.Produced
	}

	if acc != nil {
		acc.exchange += float64(counter("monsoon.exchange.rows") - exchange0)
		acc.sigmaOps += int(counter("monsoon.sigma_ops") - sigma0)
		acc.rejected += counter("monsoond.rejected") - rejected0
		for _, rq := range all {
			if rq.err != nil {
				continue
			}
			r := rq.resp
			acc.queries++
			acc.requests++
			acc.planRound += r.PlanMS / 1e3
			acc.executeRound += (r.SigmaMS + r.ExecMS) / 1e3
			acc.hits += r.CacheHits
			acc.misses += r.CacheMisses
			if r.CacheMisses == 0 && r.CacheHits > 0 {
				acc.replay += r.PlanMS / 1e3
				acc.replays += r.CacheHits
			}
			acc.produced += r.Produced
			acc.executes += r.Executes
			acc.serverS += r.ElapsedMS / 1e3
			acc.overheadS += rq.lat.Seconds() - r.ElapsedMS/1e3
		}
	}
	return p
}

// foldRing folds the daemon's retained span trees (its always-on trace
// ring, read over /traces/recent) into ring: engine self times, MCTS search
// time and rollouts, and the final aggregate, for the newest queries.
func (s *served) foldRing(ring *layers) error {
	hr, err := s.client.Get(s.ts.URL + "/traces/recent")
	if err != nil {
		return err
	}
	defer hr.Body.Close()
	raw, err := io.ReadAll(hr.Body)
	if err != nil {
		return err
	}
	type node struct {
		Span     *obs.Span `json:"span"`
		Children []*node   `json:"children"`
	}
	var traces []struct {
		Root *node `json:"root"`
	}
	if err := json.Unmarshal(raw, &traces); err != nil {
		return fmt.Errorf("decode /traces/recent: %w", err)
	}
	for _, t := range traces {
		var spans []*obs.Span
		var flatten func(n *node)
		flatten = func(n *node) {
			spans = append(spans, n.Span)
			for _, c := range n.Children {
				flatten(c)
			}
		}
		flatten(t.Root)
		ring.queries++
		ring.foldSpans(spans)
	}
	return nil
}

// verifyAdhoc re-runs the first n answered ad-hoc requests cold through the
// library, on the daemon's shard layout and planner settings, and turns a
// response whose result_hash differs from its (statement, seed) reference
// into a failed request.
func (s *served) verifyAdhoc(reqs []request, n int) {
	reg := sqlish.NewRegistry()
	for i := range reqs {
		rq := &reqs[i]
		if rq.adhoc < 0 || rq.err != nil {
			continue
		}
		if n == 0 {
			return
		}
		n--
		q, err := sqlish.Parse(rq.name, s.adhoc[rq.adhoc].sql, reg)
		if err != nil {
			rq.err = err
			continue
		}
		res, err := core.Run(q, s.eng, &engine.Budget{}, core.Config{
			Iterations: serveScale().MCTSIterations, Seed: rq.seed, Stats: stats.New(),
		})
		if err != nil {
			rq.err = fmt.Errorf("seed %d: reference run: %w", rq.seed, err)
		} else if h := resultHash(res.Output); h != rq.resp.ResultHash {
			rq.err = fmt.Errorf("seed %d: result_hash %s, reference %s", rq.seed, rq.resp.ResultHash, h)
		}
	}
}
