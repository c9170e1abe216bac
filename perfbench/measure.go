package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// Runtime metrics read at the edges of a timed phase. GC share is taken of
// the CPU the process actually used (total minus idle), not of the
// GOMAXPROCS×wall capacity runtime/metrics reports as total.
const (
	mAllocBytes = "/gc/heap/allocs:bytes"
	mGCCycles   = "/gc/cycles/total:gc-cycles"
	mGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU   = "/cpu/classes/total:cpu-seconds"
	mIdleCPU    = "/cpu/classes/idle:cpu-seconds"
	mSchedLat   = "/sched/latencies:seconds"
	mHeapLive   = "/gc/heap/live:bytes"
)

// snapshot is one reading of the process counters a phase is measured by.
type snapshot struct {
	wall    time.Time
	cpu     time.Duration // user+system CPU of the whole process
	alloc   uint64
	cycles  uint64
	gcCPU   float64
	usedCPU float64
	sched   *metrics.Float64Histogram
}

func readSnapshot() snapshot {
	s := []metrics.Sample{
		{Name: mAllocBytes}, {Name: mGCCycles}, {Name: mGCCPU},
		{Name: mTotalCPU}, {Name: mIdleCPU}, {Name: mSchedLat},
	}
	metrics.Read(s)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	h := s[5].Value.Float64Histogram()
	return snapshot{
		wall:    time.Now(),
		cpu:     cpu,
		alloc:   s[0].Value.Uint64(),
		cycles:  s[1].Value.Uint64(),
		gcCPU:   s[2].Value.Float64(),
		usedCPU: s[3].Value.Float64() - s[4].Value.Float64(),
		sched: &metrics.Float64Histogram{
			Counts:  append([]uint64(nil), h.Counts...),
			Buckets: h.Buckets,
		},
	}
}

// delta is what happened between two snapshots.
type delta struct {
	wall, cpu    time.Duration
	alloc        uint64
	cycles       uint64
	gcCPUFrac    float64
	schedWaitP99 float64
}

func diff(a, b snapshot) delta {
	d := delta{
		wall:   b.wall.Sub(a.wall),
		cpu:    b.cpu - a.cpu,
		alloc:  b.alloc - a.alloc,
		cycles: b.cycles - a.cycles,
	}
	if used := b.usedCPU - a.usedCPU; used > 0 {
		d.gcCPUFrac = (b.gcCPU - a.gcCPU) / used
	}
	counts := make([]uint64, len(b.sched.Counts))
	var total uint64
	for i := range counts {
		counts[i] = b.sched.Counts[i] - a.sched.Counts[i]
		total += counts[i]
	}
	if total > 0 {
		// Upper edge of the bucket holding the 99th percentile.
		want := uint64(math.Ceil(0.99 * float64(total)))
		var acc uint64
		for i, c := range counts {
			acc += c
			if acc >= want {
				d.schedWaitP99 = b.sched.Buckets[i+1]
				if math.IsInf(d.schedWaitP99, 1) {
					d.schedWaitP99 = b.sched.Buckets[i]
				}
				break
			}
		}
	}
	return d
}

// heapSampler records the live heap while it runs: the bytes the latest GC
// cycle marked live, which unlike the total heap does not count garbage
// awaiting the next cycle. It keeps the largest value of each interval and
// reports the median of those, so one GC that happens to land while large
// queries are in flight does not set the figure: as a plain maximum it
// spread by 0.27 between serve-mixed runs. An interval is a pass on the
// library workloads, which repeat the same queries each pass, and a second
// on serve-mixed, whose mix is stationary. runtime/metrics reads do not
// stop the world, so a 5 ms period costs nothing measurable.
type heapSampler struct {
	stop  chan struct{}
	markc chan struct{}
	done  sync.WaitGroup
	peaks []float64
}

// startHeapSampler starts sampling. With every > 0 an interval closes
// every that long; otherwise at each mark.
func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), markc: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		s := []metrics.Sample{{Name: mHeapLive}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		var peak uint64
		start := time.Now()
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-h.stop:
				if len(h.peaks) == 0 {
					h.peaks = append(h.peaks, float64(peak))
				}
				return
			case <-h.markc:
				h.peaks = append(h.peaks, float64(peak))
				peak = 0
			case now := <-t.C:
				if every > 0 && now.Sub(start) >= every {
					h.peaks = append(h.peaks, float64(peak))
					peak, start = 0, now
				}
			}
		}
	}()
	return h
}

// mark closes the current interval.
func (h *heapSampler) mark() { h.markc <- struct{}{} }

// Stop ends sampling and returns the median interval peak in bytes.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	h.done.Wait()
	return median(h.peaks)
}

// quantile is the linearly interpolated q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// hdQuantile is the Harrell–Davis estimate of the q-quantile of xs: the mean
// of the order statistics weighted by how much of a Beta(q(n+1), (1−q)(n+1))
// distribution falls in each one's rank interval. A library workload's
// latencies are one value per query, and the plain median of 30 queries is
// the time of the two middle ones, so it carries their noise alone; the
// weights spread it over the queries around the middle.
func hdQuantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n < 2 {
		return quantile(xs, q)
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	sum, prev := 0.0, 0.0
	for i, x := range xs {
		cur := regIncBeta(a, b, float64(i+1)/float64(n))
		sum += (cur - prev) * x
		prev = cur
	}
	return sum
}

// regIncBeta is the regularized incomplete beta function I_x(a, b), by the
// continued fraction of Numerical Recipes §6.4.
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	lab, _ := math.Lgamma(a + b)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

func betaCF(a, b, x float64) float64 {
	const eps, tiny = 1e-14, 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 1000; m++ {
		aa := m * (b - m) * x / ((a - 1 + 2*m) * (a + 2*m))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		h *= d * c
		aa = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 1 + 2*m))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
