package main

import (
	"bytes"
	"container/heap"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dot80211"
	"repro/internal/llc"
	"repro/internal/timesync"
	"repro/internal/tracefile"
	"repro/internal/transport"
	"repro/internal/unify"
)

// layers accumulates the traced run's per-layer spans and counts. Spans
// are recorded by the benchmark around its calls into each layer; a
// layer's self time is its span time minus the time of the calls it makes
// into the layer below (the unifier's minus its sources').
type layers struct {
	readNS, records, readBytes int64 // tracefile.Reader.Next via unify.Source
	collectNS, bootstrapNS     int64 // timesync
	radios, synced             int
	unifyNS                    int64 // unify.New and Unifier.Next, sources included
	mergeNS                    int64 // hmerge.Merger.Next
	jframes                    int64 // jframes through the back half
	llcNS                      int64 // Process, Take, Watermark, Flush
	transportNS, exchanges     int64 // AddExchange
	jfsWriteNS, jfsBytes       int64 // hmerge.Writer
	jfsFrames                  int64
	passes                     map[string]*passClock
	finalizeNS                 int64 // one-shot Finalize, or the live trailing Flush
	windowFinalizeMS           []float64
	serveNS, serveEvents       int64 // serve.Monitor's pipeline-facing calls

	// The traced run's own outputs, for the output checks.
	unify unify.Stats
	llc   llc.Stats
	ta    *transport.Analyzer
}

// passClock is one analysis pass's time and event count.
type passClock struct {
	ns, events int64
	windowNS   int64 // FinalizeWindow + Evict
}

func newLayers() *layers { return &layers{passes: map[string]*passClock{}} }

func (lt *layers) pass(name string) *passClock {
	c := lt.passes[name]
	if c == nil {
		c = &passClock{}
		lt.passes[name] = c
	}
	return c
}

// windowNS is the FinalizeWindow+Evict time of every pass so far.
func (lt *layers) windowNS() int64 {
	var n int64
	for _, c := range lt.passes {
		n += c.windowNS
	}
	return n
}

// passNS is the total time spent inside passes.
func (lt *layers) passNS() int64 {
	var n int64
	for _, c := range lt.passes {
		n += c.ns + c.windowNS
	}
	return n
}

// countedReader counts the compressed bytes a tracefile.Reader consumes.
type countedReader struct {
	io.ReadCloser
	n *int64
}

func (c countedReader) Read(p []byte) (int, error) {
	n, err := c.ReadCloser.Read(p)
	*c.n += int64(n)
	return n, err
}

// countedSlicer keeps the zero-copy tracefile.BlockSlicer path of inputs
// that have one (memory-mapped traces): a plain io.Reader wrapper would
// push the reader onto its copying path and change what is measured.
type countedSlicer struct {
	countedReader
	sl tracefile.BlockSlicer
}

func (c countedSlicer) Slice(n int) ([]byte, error) {
	b, err := c.sl.Slice(n)
	*c.n += int64(len(b))
	return b, err
}

func countReads(rc io.ReadCloser, n *int64) io.ReadCloser {
	cr := countedReader{ReadCloser: rc, n: n}
	if sl, ok := rc.(tracefile.BlockSlicer); ok {
		return countedSlicer{countedReader: cr, sl: sl}
	}
	return cr
}

// timedSource is a unify.Source over one radio of a TraceSet, built like
// the pipeline's own per-radio source (lazy open, close at end of trace, a
// latched read error), that times every Next and counts bytes read.
type timedSource struct {
	ts    *tracefile.TraceSet
	radio int32
	lt    *layers
	r     *tracefile.Reader
	rc    io.Closer
	done  bool
	err   error
}

func (s *timedSource) Next() (tracefile.Record, error) {
	t := time.Now()
	rec, err := s.next()
	s.lt.readNS += int64(time.Since(t))
	if err == nil {
		s.lt.records++
	}
	return rec, err
}

func (s *timedSource) next() (tracefile.Record, error) {
	if s.done {
		return tracefile.Record{}, io.EOF
	}
	if s.r == nil {
		rc, err := s.ts.Open(s.radio)
		if err != nil {
			s.done, s.err = true, err
			return tracefile.Record{}, err
		}
		rc = countReads(rc, &s.lt.readBytes)
		s.rc = rc
		s.r = tracefile.NewReader(rc)
	}
	rec, err := s.r.Next()
	if err != nil {
		s.done = true
		cerr := s.rc.Close()
		if err == io.EOF && cerr != nil {
			err = cerr
		}
		if err != io.EOF {
			s.err = err
		}
		return tracefile.Record{}, err
	}
	return rec, nil
}

// timedBootstrap runs the pipeline's bootstrap over a trace set (the
// serial pre-scan of each trace's first window, then timesync.Bootstrap),
// recording the timesync spans.
func timedBootstrap(ts *tracefile.TraceSet, groups [][]int32, lt *layers) (*timesync.Result, error) {
	readers := make(map[int32]*tracefile.Reader, ts.Len())
	var closers []io.Closer
	closeAll := func() error {
		var first error
		for _, c := range closers {
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	for _, r := range ts.Radios() {
		rc, err := ts.Open(r)
		if err != nil {
			_ = closeAll() // the open error wins
			return nil, fmt.Errorf("open trace for radio %d: %w", r, err)
		}
		rc = countReads(rc, &lt.readBytes)
		closers = append(closers, rc)
		readers[r] = tracefile.NewReader(rc)
	}
	t := time.Now()
	window, err := timesync.CollectWindowParallel(readers, timesync.DefaultWindowUS, 1)
	lt.collectNS += int64(time.Since(t))
	if cerr := closeAll(); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("bootstrap window: %w", err)
	}
	t = time.Now()
	boot, err := timesync.Bootstrap(window, groups)
	lt.bootstrapNS += int64(time.Since(t))
	if err != nil {
		return nil, fmt.Errorf("bootstrap: %w", err)
	}
	lt.radios += ts.Len()
	lt.synced += len(boot.OffsetUS)
	return boot, nil
}

// timedUnifier bootstraps a trace set and starts a unifier over timed
// sources, exactly as the serial pipeline does. The unifier's own time
// (construction included) goes to lt.unifyNS. faults reports the first
// latched source error once the stream has been drained.
func timedUnifier(ts *tracefile.TraceSet, groups [][]int32, lt *layers) (u *unify.Unifier, boot *timesync.Result, faults func() error, err error) {
	boot, err = timedBootstrap(ts, groups, lt)
	if err != nil {
		return nil, nil, nil, err
	}
	sources := make(map[int32]unify.Source, ts.Len())
	srcs := make([]*timedSource, 0, ts.Len())
	for _, r := range ts.Radios() {
		s := &timedSource{ts: ts, radio: r, lt: lt}
		sources[r] = s
		srcs = append(srcs, s)
	}
	t := time.Now()
	u = unify.New(unify.DefaultConfig(), sources, boot)
	lt.unifyNS += int64(time.Since(t))
	faults = func() error {
		for _, s := range srcs {
			if s.err != nil {
				return fmt.Errorf("trace for radio %d: %w", s.radio, s.err)
			}
		}
		return nil
	}
	return u, boot, faults, nil
}

// exchangeLess is the pipeline's canonical exchange release order: close
// stamp, then deterministic tiebreaks. The transport analyzer and the
// passes must see exchanges in exactly this order for the traced rebuild
// to reproduce the pipeline's outputs.
func exchangeLess(a, b *llc.Exchange) bool {
	if a.CloseUS != b.CloseUS {
		return a.CloseUS < b.CloseUS
	}
	if a.StartUS != b.StartUS {
		return a.StartUS < b.StartUS
	}
	if a.EndUS != b.EndUS {
		return a.EndUS < b.EndUS
	}
	if c := bytes.Compare(a.Transmitter[:], b.Transmitter[:]); c != 0 {
		return c < 0
	}
	if c := bytes.Compare(a.Receiver[:], b.Receiver[:]); c != 0 {
		return c < 0
	}
	if a.Seq != b.Seq {
		return a.Seq < b.Seq
	}
	if a.Delivery != b.Delivery {
		return a.Delivery < b.Delivery
	}
	return len(a.Attempts) < len(b.Attempts)
}

type exchangeHeap []*llc.Exchange

func (h exchangeHeap) Len() int           { return len(h) }
func (h exchangeHeap) Less(i, j int) bool { return exchangeLess(h[i], h[j]) }
func (h exchangeHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *exchangeHeap) Push(x any)        { *h = append(*h, x.(*llc.Exchange)) }
func (h *exchangeHeap) Pop() any {
	old := *h
	ex := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return ex
}

// backHalf is the serial pipeline's back half rebuilt from public calls,
// with a span around every layer call: each jframe from next goes to the
// passes, then to one llc reconstructor; closed exchanges are released in
// canonical close order as the reconstructor's watermark advances, to the
// passes and then the transport analyzer.
//
// The time spent in next goes to *nextNS.
func backHalf(next func() (*unify.JFrame, error), nextNS *int64, passes []analysis.Pass, lt *layers) (llc.Stats, *transport.Analyzer, error) {
	clocks := make([]*passClock, len(passes))
	for i, p := range passes {
		clocks[i] = lt.pass(p.Name())
	}
	rec := llc.NewReconstructor()
	ta := transport.NewAnalyzer()
	h := &exchangeHeap{}
	release := func(limit int64) {
		for h.Len() > 0 && (*h)[0].CloseUS < limit {
			ex := heap.Pop(h).(*llc.Exchange)
			t := time.Now()
			for i, p := range passes {
				p.ObserveExchange(ex)
				now := time.Now()
				clocks[i].ns += int64(now.Sub(t))
				clocks[i].events++
				t = now
			}
			ta.AddExchange(ex)
			lt.transportNS += int64(time.Since(t))
			lt.exchanges++
			ex.Release()
		}
	}
	for {
		t := time.Now()
		j, err := next()
		now := time.Now()
		*nextNS += int64(now.Sub(t))
		if err == io.EOF {
			break
		}
		if err != nil {
			return llc.Stats{}, nil, fmt.Errorf("jframe stream: %w", err)
		}
		lt.jframes++
		t = now
		for i, p := range passes {
			p.ObserveJFrame(j)
			now = time.Now()
			clocks[i].ns += int64(now.Sub(t))
			clocks[i].events++
			t = now
		}
		rec.Process(j)
		j.Release()
		for _, ex := range rec.Take() {
			heap.Push(h, ex)
		}
		wm := rec.Watermark()
		lt.llcNS += int64(time.Since(t))
		release(wm)
	}
	t := time.Now()
	for _, ex := range rec.Flush() {
		heap.Push(h, ex)
	}
	lt.llcNS += int64(time.Since(t))
	release(math.MaxInt64)
	return rec.Stats, ta, nil
}

// timedPass times a pass that runs inside code the benchmark does not
// rebuild (the live monitor). It keeps the optional interfaces the
// pipeline and the monitor look for: analysis.WindowedPass always,
// core.ResultSink and core.ShardedPass when the wrapped pass has them.
type timedPass struct {
	analysis.WindowedPass
	c *passClock
}

func (p *timedPass) ObserveJFrame(j *unify.JFrame) {
	t := time.Now()
	p.WindowedPass.ObserveJFrame(j)
	p.c.ns += int64(time.Since(t))
	p.c.events++
}

func (p *timedPass) ObserveExchange(ex *llc.Exchange) {
	t := time.Now()
	p.WindowedPass.ObserveExchange(ex)
	p.c.ns += int64(time.Since(t))
	p.c.events++
}

func (p *timedPass) FinalizeWindow(upToUS int64) analysis.Report {
	t := time.Now()
	r := p.WindowedPass.FinalizeWindow(upToUS)
	p.c.windowNS += int64(time.Since(t))
	return r
}

func (p *timedPass) Evict(beforeUS int64) {
	t := time.Now()
	p.WindowedPass.Evict(beforeUS)
	p.c.windowNS += int64(time.Since(t))
}

// shardForward forwards core.ShardedPass. Shard instances are the wrapped
// pass's own and run untimed; the serial paths traced here never shard.
type shardForward struct{ sp core.ShardedPass }

func (s shardForward) NewShard() core.Pass     { return s.sp.NewShard() }
func (s shardForward) AbsorbShard(x core.Pass) { s.sp.AbsorbShard(x) }

func timePass(p analysis.Pass, lt *layers) (analysis.Pass, error) {
	wp, ok := p.(analysis.WindowedPass)
	if !ok {
		return nil, fmt.Errorf("pass %q is not windowed", p.Name())
	}
	tp := &timedPass{WindowedPass: wp, c: lt.pass(p.Name())}
	rs, sink := p.(core.ResultSink)
	sp, sharded := p.(core.ShardedPass)
	switch {
	case sink && sharded:
		return struct {
			*timedPass
			core.ResultSink
			shardForward
		}{tp, rs, shardForward{sp}}, nil
	case sink:
		return struct {
			*timedPass
			core.ResultSink
		}{tp, rs}, nil
	case sharded:
		return struct {
			*timedPass
			shardForward
		}{tp, shardForward{sp}}, nil
	}
	return tp, nil
}

// decodeNSPerRecord times dot80211.DecodeCapture over every record of the
// trace sets in a loop of its own. Frames are copied out in batches first
// so the clock brackets decoding alone.
func decodeNSPerRecord(sets ...*tracefile.TraceSet) (float64, error) {
	const batch = 4096
	frames := make([][]byte, 0, batch)
	arena := make([]byte, 0, batch*256)
	var ns, n int64
	flush := func() {
		t := time.Now()
		for _, f := range frames {
			decoded, _, _ = dot80211.DecodeCapture(f)
		}
		ns += int64(time.Since(t))
		n += int64(len(frames))
		frames, arena = frames[:0], arena[:0]
	}
	for _, ts := range sets {
		for _, r := range ts.Radios() {
			rc, err := ts.Open(r)
			if err != nil {
				return 0, err
			}
			rd := tracefile.NewReader(rc)
			for {
				rec, err := rd.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					_ = rc.Close() // the read error wins
					return 0, fmt.Errorf("radio %d: %w", r, err)
				}
				if rec.Frame == nil {
					continue
				}
				if cap(arena)-len(arena) < len(rec.Frame) {
					flush()
				}
				off := len(arena)
				arena = append(arena, rec.Frame...)
				frames = append(frames, arena[off:len(arena):len(arena)])
				if len(frames) == batch {
					flush()
				}
			}
			if err := rc.Close(); err != nil {
				return 0, err
			}
		}
	}
	flush()
	return per(float64(ns), float64(n)), nil
}

// decoded keeps the decode loop's results live.
var decoded dot80211.Frame
