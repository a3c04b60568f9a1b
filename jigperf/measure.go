package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/analysis"
	"repro/internal/llc"
	"repro/internal/transport"
	"repro/internal/unify"
)

// heapSampler records the peak of the runtime's live-heap gauge
// (/gc/heap/live:bytes, the heap marked live by the latest GC). The gauge
// moves only when a GC cycle ends, so a 5 ms period sees every value a
// run goes through; reading it does not stop the world.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	wg   sync.WaitGroup
}

const heapLiveMetric = "/gc/heap/live:bytes"

func readHeapLive() uint64 {
	s := []metrics.Sample{{Name: heapLiveMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.observe()
			}
		}
	}()
	return h
}

func (h *heapSampler) observe() {
	v := readHeapLive()
	for {
		old := h.peak.Load()
		if v <= old || h.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// reset restarts the peak at the current gauge value.
func (h *heapSampler) reset() { h.peak.Store(readHeapLive()) }

// Stop ends sampling and waits for the sampling goroutine to exit.
func (h *heapSampler) Stop() {
	close(h.stop)
	h.wg.Wait()
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// meter measures one repetition of a workload from the outside: wall
// time, process CPU time, heap allocations and the live-heap peak.
type meter struct {
	heap   *heapSampler
	start  time.Time
	cpu0   time.Duration
	alloc0 uint64
}

// rep is what one repetition measured.
type rep struct {
	wall, cpu time.Duration
	allocs    uint64
	heapPeak  uint64
	setup     time.Duration // run start to the first jframe a consumer saw
	jframes   int64
	lagsMS    []float64 // per-report lag (live: per window)
}

// begin collects the previous repetition's garbage, so every repetition
// starts from the same heap, and starts the clocks.
func (m *meter) begin() {
	runtime.GC()
	m.heap.reset()
	m.cpu0 = cpuTime()
	m.alloc0 = heapAllocs()
	m.start = time.Now()
}

// end stops the clocks into r.
func (m *meter) end(r *rep) {
	r.wall = time.Since(m.start)
	r.cpu = cpuTime() - m.cpu0
	r.allocs = heapAllocs() - m.alloc0
	m.heap.observe()
	r.heapPeak = m.heap.peak.Load()
}

// firstFrame is a probe pass that stamps when the first jframe reaches a
// consumer. The pipeline calls it before any other pass of the run.
type firstFrame struct {
	start time.Time
	at    time.Duration
	seen  bool
}

func (p *firstFrame) ObserveJFrame(*unify.JFrame) {
	if !p.seen {
		p.seen = true
		p.at = time.Since(p.start)
	}
}

func (p *firstFrame) ObserveExchange(*llc.Exchange) {}

// outcome is what a run produced, in the form the output checks compare:
// unification and reconstruction counters, the transport flow and loss
// summary, and every pass report.
type outcome struct {
	Unify     unify.Stats
	LLC       llc.Stats
	Transport transport.Stats
	Loss      []transport.FlowLossRate
	Reports   []analysis.Section `json:",omitempty"`
}

func newOutcome(us unify.Stats, ls llc.Stats, ta *transport.Analyzer, reports []analysis.Section) outcome {
	return outcome{Unify: us, LLC: ls, Transport: ta.Stats, Loss: ta.LossRates(5), Reports: reports}
}

// digest hashes an outcome's JSON encoding.
func (o outcome) digest() (string, error) {
	b, err := json.Marshal(o)
	if err != nil {
		return "", fmt.Errorf("digest outcome: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:12]), nil
}

// finalReports finalizes one-shot passes into their JSON sections.
func finalReports(passes []analysis.Pass) ([]analysis.Section, error) {
	out := make([]analysis.Section, len(passes))
	for i, p := range passes {
		sec, err := analysis.SectionJSON(p.Name(), p.Finalize())
		if err != nil {
			return nil, err
		}
		out[i] = sec
	}
	return out, nil
}

// quantile is the linear-interpolation quantile (q in [0,1]) of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// medianOf is the median of f over the repetitions.
func medianOf(reps []rep, f func(r rep) float64) float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return median(xs)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
