package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"monsoon/internal/bench/imdb"
	"monsoon/internal/bench/tpch"
	"monsoon/internal/bench/udf"
	"monsoon/internal/engine"
	"monsoon/internal/query"
	"monsoon/internal/randx"
	"monsoon/internal/table"
)

// suitePlanDigests pins, per query of the Tiny TPC-H, IMDB and UDF suites
// (the queries the plan-cold benchmark plans), a digest of everything the
// planner decided: every planning call's principal variation, the round
// boundaries, the executed trees, the objects produced and the answer. Any
// change to the simulator's representation must reproduce these exactly.
var suitePlanDigests = map[string]string{
	"tpch-q2":  "3a7a267aa7923eca",
	"tpch-q3":  "337811284517d856",
	"tpch-q5":  "9fc791ebd72f872a",
	"tpch-q7":  "cba9bad4020f4cd5",
	"tpch-q8":  "e610f2544b55c0ef",
	"tpch-q9":  "5408b4284675a0b5",
	"tpch-q10": "a2f509c107b8adcd",
	"tpch-q11": "a00d000c16b3f323",
	"tpch-q18": "c4d1bbc43d5e56af",
	"tpch-q21": "08d183f81532f76b",
	"imdb-q01": "60497b2b1db41d59",
	"imdb-q02": "d248f4568543535d",
	"imdb-q03": "bfbaa4573598f1f9",
	"imdb-q04": "9ea6e51fc74bf2a7",
	"imdb-q05": "d530f8d4582dcd6d",
	"imdb-q06": "625d35d1f59b12d8",
	"imdb-q07": "93c48f796befdfd1",
	"imdb-q08": "41c0120c1ad0ac79",
	"udf-i01":  "2974bf962b36be30",
	"udf-i02":  "8086f9b3ec562763",
	"udf-i03":  "6f4bbe571dfa8c82",
	"udf-i04":  "98e2f538e3b2a93e",
	"udf-i05":  "20ec00a34346c277",
	"udf-i06":  "0419ee511b0e6335",
	"udf-i07":  "89dd8a13a22d172c",
	"udf-i08":  "2a99226f4461e057",
	"udf-i09":  "f67082f7f0715599",
	"udf-i10":  "7f67646f1c3dad63",
	"udf-i11":  "c46c729f3555f324",
	"udf-i12":  "2724e26a7af556eb",
	"udf-i13":  "b566bd732966a668",
	"udf-i14":  "03bf469f11698fec",
	"udf-i15":  "c662df404e99fdd7",
	"udf-t01":  "9fb89e4282e902e0",
	"udf-t02":  "4e3f7fe40c5cb797",
	"udf-t03":  "dc609075675d727c",
	"udf-t04":  "a43ae5bc2abc971b",
	"udf-t05":  "d27cee51428f4bb3",
	"udf-t06":  "029d18b6265b811f",
	"udf-t07":  "a800892d5127afc2",
	"udf-t08":  "d4eb2e23d6c24544",
	"udf-t09":  "3cfff79b9c3f8955",
	"udf-t10":  "8c403068d8f1833d",
}

// suiteGoldenQuery is one suite query bound to the catalog it runs on.
type suiteGoldenQuery struct {
	q   *query.Query
	cat *table.Catalog
}

// suiteGoldenQueries builds the Tiny-scale suites at data seed 1.
func suiteGoldenQueries() []suiteGoldenQuery {
	const seed = 1
	var out []suiteGoldenQuery
	add := func(cat *table.Catalog, qs []*query.Query) {
		for _, q := range qs {
			out = append(out, suiteGoldenQuery{q, cat})
		}
	}
	add(tpch.Generate(tpch.Config{ScaleFactor: 0.001, Seed: seed}), tpch.Queries())
	add(imdb.Generate(imdb.Config{Titles: 150, Bootstrap: 1, Seed: seed}), imdb.Queries(8, seed))
	u := udf.Generate(udf.Config{Titles: 150, ScaleFactor: 0.001, Seed: seed})
	add(u.IMDBCat, u.IMDB)
	add(u.TPCHCat, u.TPCH)
	return out
}

// suitePlanDigest runs q through a session, recording the principal
// variation of every planning call, and digests the run. The loop is
// PlanRound's uncached path with the planner's stats read after each call.
func suitePlanDigest(t *testing.T, q *query.Query, eng *engine.Engine) string {
	t.Helper()
	s := NewSession(q, eng, &engine.Budget{MaxTuples: 2e6}, Config{
		Iterations: 150,
		Seed:       randx.Derive(1, "suite-golden/"+q.Name),
	})
	defer s.Close()
	var b strings.Builder
	for !s.state.Terminal() {
		for {
			picked := s.planner.Plan(s.model, s.state)
			fmt.Fprintf(&b, "line %q\n", s.planner.LastStats().Line)
			if picked == nil {
				t.Fatalf("%s: no legal action", q.Name)
			}
			act := asAction(picked)
			if act.Kind == ActExecute {
				break
			}
			ns, err := applyPlanEdit(s.state, s.q, act)
			if err != nil {
				t.Fatalf("%s: %v", q.Name, err)
			}
			s.state = ns
		}
		s.execPending = true
		if err := s.ExecuteRound(); err != nil {
			fmt.Fprintf(&b, "err %v\n", err)
			break
		}
		b.WriteString("round\n")
	}
	res := s.Result()
	if s.state.Terminal() {
		var err error
		if res, err = s.Finalize(); err != nil {
			t.Fatalf("%s: finalize: %v", q.Name, err)
		}
	}
	for _, tree := range res.Executed {
		fmt.Fprintf(&b, "tree %s\n", tree)
	}
	fmt.Fprintf(&b, "produced %x executes %d rows %d value %x\n",
		math.Float64bits(res.Produced), res.Executes, res.Rows, math.Float64bits(res.Value))
	h := fnv.New64a()
	h.Write([]byte(b.String()))
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestSuitePlanGolden is the plan-identity gate for the planner's hot path:
// 43 queries, one fixed seed each, 150 rollouts per planning call.
func TestSuitePlanGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every Tiny suite query")
	}
	qs := suiteGoldenQueries()
	if len(qs) != 43 {
		t.Fatalf("suite has %d queries, want 43", len(qs))
	}
	engines := map[*table.Catalog]*engine.Engine{}
	var missing []string
	for _, sq := range qs {
		eng := engines[sq.cat]
		if eng == nil {
			eng = engine.New(sq.cat)
			engines[sq.cat] = eng
		}
		got := suitePlanDigest(t, sq.q, eng)
		want, ok := suitePlanDigests[sq.q.Name]
		if !ok {
			missing = append(missing, fmt.Sprintf("%q: %q,", sq.q.Name, got))
			continue
		}
		if got != want {
			t.Errorf("%s: plan digest %s, want %s", sq.q.Name, got, want)
		}
	}
	if len(missing) > 0 {
		t.Errorf("unpinned queries:\n%s", strings.Join(missing, "\n"))
	}
}
