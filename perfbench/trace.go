package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"monsoon/internal/obs"
)

// span is one benchmark-owned span: a timed call into a public function of
// one layer, recorded from outside the program. Spans of one query share
// Query; Parent is 0 for the query's root span.
type span struct {
	ID     int64     `json:"id"`
	Parent int64     `json:"parent,omitempty"`
	Query  int64     `json:"query"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

// spanLog keeps every span in memory until the run ends. A nil *spanLog
// records nothing, so the untraced pass pays one nil check per call.
type spanLog struct {
	mu     sync.Mutex
	spans  []span
	nextID int64
}

// id hands out the next span ID; a query's root span ID doubles as the
// query ID its children carry.
func (l *spanLog) id() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nextID++
	return l.nextID
}

// add records a finished span.
func (l *spanLog) add(s span) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, s)
}

// write dumps the spans as JSON lines.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// engineKinds are the operator kinds whose self time the traced pass
// reports. Worker and shard spans are fan-outs of the operator above them,
// so their time stays with that operator.
var engineKinds = []string{
	obs.KScan, obs.KHashBuild, obs.KHashProbe, obs.KNestedLoop, obs.KMaterialize, obs.KSigma,
}

// layers accumulates per-layer counts and times over the traced queries.
type layers struct {
	queries int

	// Benchmark spans around the core.Session calls.
	planRound, executeRound, finalize float64
	replay                            float64 // PlanRound calls served by the plan cache
	replays                           int
	hits, misses                      int

	// Folded from the program's own spans.
	searchS    float64
	searches   int
	aggregateS float64
	rollouts   float64
	engineSelf map[string]float64
	exchange   float64
	produced   float64
	executes   int
	sigmaOps   int

	// serve-mixed only.
	serverS, overheadS float64
	requests           int
	rejected           int64
}

func newLayers() *layers { return &layers{engineSelf: map[string]float64{}} }

// foldSpans folds one query's program spans (an obs.Collector's, or one
// trace of the daemon's ring) into the accumulator: MCTS search time and
// rollouts from the plan spans, and engine self time per operator kind.
func (a *layers) foldSpans(spans []*obs.Span) {
	for _, root := range obs.BuildSpanTree(spans) {
		root.Walk(func(n *obs.SpanNode, _ int) {
			switch n.Kind {
			case obs.KPlan:
				if r := n.Num["rollouts"]; r > 0 {
					a.searches++
					a.rollouts += r
					a.searchS += n.Dur.Seconds()
				}
				return
			case obs.KAggregate:
				a.aggregateS += n.Dur.Seconds()
				return
			case obs.KHashBuild:
				a.exchange += n.Num["exchange_rows"]
			}
			if !isEngineKind(n.Kind) {
				return
			}
			self := n.Dur
			for _, c := range n.Children {
				if c.Kind != obs.KWorker && c.Kind != obs.KShard {
					self -= c.Dur
				}
			}
			if self > 0 {
				a.engineSelf[n.Kind] += self.Seconds()
			}
		})
	}
}

func isEngineKind(k string) bool {
	for _, e := range engineKinds {
		if e == k {
			return true
		}
	}
	return false
}

// perQuery divides by the traced query count.
func (a *layers) perQuery(x float64) float64 {
	if a.queries == 0 {
		return 0
	}
	return x / float64(a.queries)
}
