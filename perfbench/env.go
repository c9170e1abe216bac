package main

import (
	"monsoon/internal/bench/ott"
	"monsoon/internal/bench/tpch"
	"monsoon/internal/bench/udf"
	"monsoon/internal/engine"
	"monsoon/internal/harness"

	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// stamp records where and on what a result was measured.
func stamp(workload string, seed int64, seconds float64, trace int) map[string]any {
	return map[string]any{
		"commit":     commit(),
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"workload":   workload,
		"seed":       seed,
		"seconds":    seconds,
		"trace":      trace,
		"sizes":      sizes(workload),
	}
}

// sizes describes a workload's inputs and settings.
func sizes(workload string) map[string]any {
	tiny := harness.Tiny()
	common := map[string]any{
		"rollouts_per_planning_call": tiny.MCTSIterations,
		"engine_workers":             runtime.GOMAXPROCS(0),
		"planner_threads":            runtime.GOMAXPROCS(0),
		"batch_size":                 engine.DefaultBatchSize,
		"setup_reps":                 setupReps,
	}
	switch workload {
	case "plan-cold":
		common["suites"] = map[string]any{
			"tpch": map[string]any{"sf": tiny.TPCHSF, "queries": len(tpch.Queries())},
			"imdb": map[string]any{"titles": tiny.IMDBTitles, "bootstrap": tiny.IMDBBootstrap, "queries": tiny.IMDBQueryCount},
			"udf":  map[string]any{"titles": tiny.UDFTitles, "sf": tiny.UDFSF, "queries": len(udf.IMDBQueries()) + len(udf.TPCHQueries())},
		}
		common["max_tuples"] = maxTuples
		common["plan_cache"] = false
		common["shards"] = 1
		common["clients"] = 1
	case "exec-warm":
		common["suites"] = map[string]any{
			"ott":  map[string]any{"sf": ottSF, "queries": len(ott.Queries())},
			"tpch": map[string]any{"sf": execTPCHSF, "queries": len(tpch.Queries())},
		}
		common["max_tuples"] = maxTuples
		common["plan_cache"] = true
		common["shards"] = 1
		common["clients"] = 1
	case "serve-mixed":
		common["suites"] = map[string]any{
			"tpch": map[string]any{"sf": serveTPCHSF, "named_queries": len(tpch.Queries()), "adhoc_statements": adhocPool},
		}
		common["shards"] = serveShards
		common["clients"] = serveClients
		common["request_mix"] = map[string]any{"named": cycleLen - adhocPerCycle, "adhoc": adhocPerCycle, "of": cycleLen}
		common["deadline_s"] = serveScale().Timeout.Seconds()
	}
	return common
}

// commit is the VCS revision the binary was built from, when the build saw
// one.
func commit() string {
	rev, dirty := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
