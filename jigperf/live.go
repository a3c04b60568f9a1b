package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/llc"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/tracefile"
	"repro/internal/unify"
)

// Live settings. The generator replays the building open-loop at a fixed
// multiple of trace time into rotating segments; the daemon side polls at
// jigd's default interval and reports 1 s windows with jigd's default
// slack. The pace is one the serial pipeline sustains on two cores with
// the generator beside it, so the windows' lag does not grow over a run.
// The daemon serves the radios whose first segment seals within
// liveRosterUS of trace time (see liveRoster).
const (
	livePace      = 4
	liveSegmentUS = 2_000_000
	liveRosterUS  = 2 * liveSegmentUS
	liveWindowUS  = 1_000_000
	livePoll      = 200 * time.Millisecond

	liveBuildingSeed = 1
)

// live is building_live's input: a recorded building and what the daemon
// serves of it.
type live struct {
	src        string        // recorded building trace directory
	roster     []int32       // radios the daemon serves (see liveRoster)
	firstLocal int64         // the replay schedule's origin (local µs)
	phase      time.Duration // the replay starts this long after the daemon (from the seed)
	params     analysis.PassParams
	groups     [][]int32
	ts         *tracefile.TraceSet // the roster's recorded traces
	ref        string              // batch reference outcome digest
	reports    string              // the first repetition's window reports
}

// liveRep is what one live repetition produced.
type liveRep struct {
	rep
	out           outcome // stats and transport summary, no reports
	reports       string  // digest of the window sequence and final reports
	windowsWant   int
	windowsGot    int
	genWriteNS    float64 // per record, sleeps excluded
	genLateP95MS  float64
	sealWaitMS    []float64
	scanMS        []float64
	wmLagMS       []float64
	captureReadMB float64
}

// runLive is building_live: jigd's path over a building. scenario.Replay
// writes the recorded traces into a capture directory at a fixed pace
// while, in the same process, a tracefile.TailSet polled like jigd's
// feeds core.RunFrom on the serial path with the truth-free passes behind
// a serve.Monitor.
//
// Every run replays the same recorded building (scenario seed
// liveBuildingSeed); the seed shifts the replay's start against the
// daemon's polling. When each radio goes quiet decides when its segments
// seal, and a quiet radio holds the whole merge: that structure sets the
// window lag and differs so much from one building to the next that a
// seed-varied building would swamp any change to the daemon.
func runLive(r *run) (metricSet, error) {
	scfg := r.buildingConfig(buildingDaySec)
	scfg.Seed = liveBuildingSeed
	t := time.Now()
	b, err := genBuilding(filepath.Join(r.work, "building"), scfg, 0, 0)
	if err != nil {
		return nil, err
	}
	r.stampInput(b.dir, b.records, time.Since(t))
	r.prov["workers"] = 1
	r.prov["pace"] = livePace
	lv := &live{
		src:    b.dir,
		phase:  time.Duration(r.seed*7919%1000) * livePoll / 1000,
		params: passParams(b.meta),
		groups: b.meta.ClockGroups,
	}
	r.prov["start_phase_s"] = lv.phase.Seconds()
	if lv.roster, lv.firstLocal, err = liveRoster(b.dir, liveSegmentUS, liveRosterUS); err != nil {
		return nil, err
	}
	r.prov["live_radios"] = len(lv.roster)
	m := &meter{heap: r.heap}

	// The batch reference over the served radios' recorded traces: live
	// must unify and reconstruct exactly what an offline merge of those
	// records does.
	all, err := tracefile.OpenDir(b.dir)
	if err != nil {
		return nil, err
	}
	lv.ts = subset(all, lv.roster, nil)
	cfg := core.DefaultConfig()
	cfg.Workers = 1
	res, err := core.RunFrom(lv.ts, lv.groups, cfg, nil)
	if err != nil {
		return nil, err
	}
	if res.UnifyStats.JFrames == 0 {
		return nil, errNoJFrames
	}
	r.prov["input_jframes"] = res.UnifyStats.JFrames
	if lv.ref, err = newOutcome(res.UnifyStats, res.LLCStats, res.Transport, nil).digest(); err != nil {
		return nil, err
	}

	check := func(lr *liveRep, label string) {
		d, err := lr.out.digest()
		r.checks.expect(err == nil && d == lv.ref, "building_live %s: outcome %s, batch reference %s", label, d, lv.ref)
		r.checks.expectCount(lr.windowsWant, lr.windowsGot, "building_live %s: windows closed", label)
		if lv.reports == "" {
			lv.reports = lr.reports
		}
		r.checks.expect(lr.reports == lv.reports, "building_live %s: window reports %s, first repetition %s", label, lr.reports, lv.reports)
	}
	n := 0
	capture := func() string {
		n++
		return filepath.Join(r.work, fmt.Sprintf("capture-%d", n))
	}
	if !r.traced {
		reps, err := r.measureFor(2, func() (rep, error) {
			lr, err := lv.run(m, capture(), nil)
			if err != nil {
				return rep{}, err
			}
			check(lr, "run")
			return lr.rep, nil
		})
		if err != nil {
			return nil, err
		}
		return r.endToEnd(reps), nil
	}

	// Each traced repetition is paired with an untraced one over the same
	// building, the base of the tracing overhead.
	var plain, traced []rep
	var sets []metricSet
	_, err = r.measureFor(1, func() (rep, error) {
		lr, err := lv.run(m, capture(), nil)
		if err != nil {
			return rep{}, err
		}
		check(lr, "run")
		plain = append(plain, lr.rep)

		lt := newLayers()
		tr, err := lv.run(m, capture(), lt)
		if err != nil {
			return rep{}, err
		}
		check(tr, "traced run")
		traced = append(traced, tr.rep)
		set := newMetricSet(perLayerUnits)
		set.layerCounts(tr.out.Unify, tr.out.LLC, tr.out.Transport.Flows)
		set.set("tracefile.read_mb", tr.captureReadMB)
		set.set("tracefile.write_ns_per_record", tr.genWriteNS)
		set.set("tracefile.tail_scan_ms_p50", median(tr.scanMS))
		set.set("tracefile.tail_scans", float64(len(tr.scanMS)))
		set.set("scenario.gen_late_p95_ms", tr.genLateP95MS)
		set.set("tracefile.seal_wait_ms_p95", quantile(tr.sealWaitMS, 0.95))
		for name, c := range lt.passes {
			set.set("analysis."+name+".ns_per_event", per(float64(c.ns), float64(c.events)))
		}
		set.set("analysis.finalize_ms", float64(lt.finalizeNS)/1e6)
		set.set("analysis.finalize_window_ms_p50", median(lt.windowFinalizeMS))
		set.set("serve.self_ns_per_event", per(float64(lt.serveNS-lt.passNS()), float64(lt.serveEvents)))
		set.set("serve.watermark_lag_ms_p95", quantile(tr.wmLagMS, 0.95))
		set.set("serve.windows_closed", float64(tr.windowsGot))
		// The daemon's bootstrap runs inside core.RunFrom; its layer time
		// is measured over the same records in a loop of its own.
		bt := newLayers()
		if _, err := timedBootstrap(lv.ts, lv.groups, bt); err != nil {
			return rep{}, err
		}
		set.set("timesync.collect_window_ms", float64(bt.collectNS)/1e6)
		set.set("timesync.bootstrap_ms", float64(bt.bootstrapNS)/1e6)
		set.set("timesync.synced_share", per(float64(bt.synced), float64(bt.radios)))
		sets = append(sets, set)
		return tr.rep, nil
	})
	if err != nil {
		return nil, err
	}
	out := medianSets(sets)
	dec, err := decodeNSPerRecord(lv.ts)
	if err != nil {
		return nil, err
	}
	out.set("dot80211.decode_ns_per_record", dec)
	out.set("trace.overhead_pct", overheadPct(traced, plain))
	return out, nil
}

// pacer is the generator's schedule: record relUS is due at
// start + relUS/livePace. It sleeps only when at least a millisecond
// ahead, since a per-record sleep cannot hold a microsecond-spaced
// schedule, and samples its lateness once per millisecond of trace time.
type pacer struct {
	start   time.Time
	cancel  atomic.Bool // set when the daemon side fails: stop sleeping
	slept   time.Duration
	nextUS  int64
	lateMS  []float64
	records int64
}

func (p *pacer) wait(relUS int64) {
	p.records++
	ahead := time.Until(p.start.Add(time.Duration(float64(relUS) * 1e3 / livePace)))
	if relUS >= p.nextUS {
		p.nextUS = relUS + 1000
		p.lateMS = append(p.lateMS, math.Max(0, -ms(ahead)))
	}
	if ahead >= time.Millisecond && !p.cancel.Load() {
		t := time.Now()
		time.Sleep(ahead)
		p.slept += time.Since(t)
	}
}

// liveMonitor is the pass core.RunFrom drives: the serve.Monitor, plus
// the first-jframe probe, the frontier the monitor closes windows
// against, and (traced) the monitor's own time.
type liveMonitor struct {
	*serve.Monitor
	first               firstFrame
	started             bool
	firstUS, frontierUS int64
	beforeLastUS        int64 // the frontier before the latest jframe
	lt                  *layers
}

func (m *liveMonitor) ObserveJFrame(j *unify.JFrame) {
	m.first.ObserveJFrame(j)
	if !m.started {
		m.started, m.firstUS = true, j.UnivUS
	}
	m.beforeLastUS = m.frontierUS
	m.frontierUS = max(m.frontierUS, j.UnivUS)
	if m.lt == nil {
		m.Monitor.ObserveJFrame(j)
		return
	}
	t := time.Now()
	m.Monitor.ObserveJFrame(j)
	m.lt.serveNS += int64(time.Since(t))
	m.lt.serveEvents++
}

func (m *liveMonitor) ObserveExchange(ex *llc.Exchange) {
	if m.lt == nil {
		m.Monitor.ObserveExchange(ex)
		return
	}
	t := time.Now()
	m.Monitor.ObserveExchange(ex)
	m.lt.serveNS += int64(time.Since(t))
	m.lt.serveEvents++
}

func (m *liveMonitor) SetResult(res *core.Result) {
	t := time.Now()
	m.Monitor.SetResult(res)
	if m.lt != nil {
		m.lt.serveNS += int64(time.Since(t))
	}
}

// windowsDue is how many windows the monitor must have closed by the end
// of the stream: it closes window k, ending firstUS + k·window, once the
// frontier before an incoming jframe clears that end plus its slack.
func (m *liveMonitor) windowsDue() int {
	span := m.beforeLastUS - m.firstUS - serve.DefaultSlackUS
	if !m.started || span < liveWindowUS {
		return 0
	}
	return int(span / liveWindowUS)
}

// closedWindow is one OnWindow call.
type closedWindow struct {
	EndUS int64
	at    time.Duration
}

// run is one live repetition in capture directory capDir, traced when lt
// is non-nil.
func (lv *live) run(m *meter, capDir string, lt *layers) (*liveRep, error) {
	out := &liveRep{}
	pc := &pacer{}
	var genErr error
	var genWall time.Duration
	genDone := make(chan struct{})
	m.begin()
	start := m.start
	pc.start = start.Add(lv.phase)
	go func() {
		defer close(genDone)
		time.Sleep(lv.phase)
		t := time.Now()
		genErr = scenario.Replay(scenario.ReplayConfig{
			SrcDir: lv.src, DstDir: capDir, SegmentUS: liveSegmentUS, Pace: pc.wait, MarkDone: true,
		})
		genWall = time.Since(t)
	}()

	res, lm, windows, err := lv.daemon(capDir, start, lt, out, genDone)
	if err != nil {
		pc.cancel.Store(true)
		<-genDone
		return nil, err
	}
	m.end(&out.rep)
	<-genDone
	if genErr != nil {
		return nil, fmt.Errorf("replay: %w", genErr)
	}

	// Report lag runs from when the replay schedule wrote the window's
	// end on every radio; the share of it the capture spent holding data
	// back (unsealed segments of radios gone quiet) is the seal wait: a
	// window closes once the frontier clears its end plus the monitor's
	// slack, which needs every served radio's records past that time.
	seals, err := readSeals(capDir, lv.roster)
	if err != nil {
		return nil, err
	}
	offsets := res.Bootstrap.OffsetUS
	for _, w := range windows[:max(len(windows)-1, 0)] { // not the trailing window Flush closes
		out.lagsMS = append(out.lagsMS, ms(w.at-lv.phase-lv.scheduled(w.EndUS, offsets)))
		needUS := w.EndUS + serve.DefaultSlackUS
		avail := seals.available(needUS, offsets).Sub(start)
		out.sealWaitMS = append(out.sealWaitMS, ms(avail-lv.phase-lv.scheduled(needUS, offsets)))
	}
	out.windowsWant = lm.windowsDue() + 1
	// Windows count as closed while they tile the stream from its first
	// jframe; the trailing one ends wherever the stream did.
	for i, w := range windows {
		if i < len(windows)-1 && w.EndUS != lm.firstUS+int64(i+1)*liveWindowUS {
			break
		}
		out.windowsGot++
	}
	out.setup = lm.first.at
	out.jframes = res.UnifyStats.JFrames
	out.out = newOutcome(res.UnifyStats, res.LLCStats, res.Transport, nil)
	out.genWriteNS = per(float64(genWall-pc.slept), float64(pc.records))
	out.genLateP95MS = quantile(pc.lateMS, 0.95)

	var secs []analysis.Section
	for _, name := range lm.PassNames() {
		if rep, ok := lm.Report(name); ok {
			secs = append(secs, rep.Section)
		}
	}
	b, err := json.Marshal(struct {
		Windows []closedWindow
		Reports []analysis.Section
	}{windows, secs})
	if err != nil {
		return nil, err
	}
	out.reports = fmt.Sprintf("%x", sha256.Sum256(b))
	if err := os.RemoveAll(capDir); err != nil {
		return nil, err
	}
	return out, nil
}

// scheduled is when the replay schedule writes universal time univUS on
// every radio: radio i records universal time U at local U - offset_i,
// so the radio with the smallest offset reaches it last.
func (lv *live) scheduled(univUS int64, offsets map[int32]int64) time.Duration {
	minOff := int64(math.MaxInt64)
	for _, off := range offsets {
		minOff = min(minOff, off)
	}
	return time.Duration(float64(univUS-minOff-lv.firstLocal) * 1e3 / livePace)
}

// segSeal is one sealed segment: its last record's local time and when
// its index sidecar appeared.
type segSeal struct {
	lastUS int64
	at     time.Time
}

// captureSeals is a finished capture's seal history per served radio.
type captureSeals struct {
	radios map[int32][]segSeal
	done   time.Time // the capture.done marker
}

// readSeals reads every served radio's sealed segments from a finished
// capture directory.
func readSeals(dir string, radios []int32) (*captureSeals, error) {
	cs := &captureSeals{radios: make(map[int32][]segSeal, len(radios))}
	fi, err := os.Stat(filepath.Join(dir, tracefile.CaptureDoneName))
	if err != nil {
		return nil, err
	}
	cs.done = fi.ModTime()
	for _, r := range radios {
		for seg := 0; ; seg++ {
			path := tracefile.SegmentIndexPath(dir, r, seg)
			f, err := os.Open(path)
			if os.IsNotExist(err) {
				break
			}
			if err != nil {
				return nil, err
			}
			idx, err := tracefile.ReadIndex(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			fi, err := os.Stat(path)
			if err != nil {
				return nil, err
			}
			if len(idx) > 0 {
				cs.radios[r] = append(cs.radios[r], segSeal{lastUS: idx[len(idx)-1].LastLocalUS, at: fi.ModTime()})
			}
		}
	}
	return cs, nil
}

// available is when the capture had delivered every synchronized served
// radio's records past universal time univUS: for each radio, the seal of
// the first segment holding a record past it, or the end of capture.
func (cs *captureSeals) available(univUS int64, offsets map[int32]int64) time.Time {
	var latest time.Time
	for r, segs := range cs.radios {
		off, ok := offsets[r]
		if !ok {
			continue // the unifier skips radios the bootstrap left unsynchronized
		}
		at := cs.done
		for _, s := range segs {
			if s.lastUS > univUS-off {
				at = s.at
				break
			}
		}
		if at.After(latest) {
			latest = at
		}
	}
	return latest
}

// daemon is jigd's side of a live repetition: wait for the capture's
// meta.json and for every roster radio's first sealed segment, poll
// the directory on a timer, and run the serial pipeline over the tail
// with the passes behind a serve.Monitor until the capture is done.
func (lv *live) daemon(capDir string, start time.Time, lt *layers, out *liveRep, genDone <-chan struct{}) (*core.Result, *liveMonitor, []closedWindow, error) {
	tail := tracefile.NewTailSet(capDir)
	scan := func() error {
		t := time.Now()
		_, err := tail.Scan()
		out.scanMS = append(out.scanMS, ms(time.Since(t)))
		return err
	}
	var meta scenario.Meta
	for {
		ended := closed(genDone)
		var err error
		meta, err = scenario.ReadMeta(capDir)
		if err == nil {
			break
		}
		if !os.IsNotExist(err) {
			return nil, nil, nil, err
		}
		if ended {
			return nil, nil, nil, fmt.Errorf("capture ended without %s", scenario.MetaFileName)
		}
		pollWait(genDone)
	}
	for {
		ended := closed(genDone)
		if err := scan(); err != nil {
			return nil, nil, nil, err
		}
		ready := 0
		for _, radio := range lv.roster {
			if tail.SealedSegments(radio) > 0 {
				ready++
			}
		}
		if ready == len(lv.roster) {
			break
		}
		if ended {
			return nil, nil, nil, fmt.Errorf("capture ended with %d of %d roster radios sealed", ready, len(lv.roster))
		}
		pollWait(genDone)
	}

	passes, err := analysis.NewPasses("all", lv.params)
	if err != nil {
		return nil, nil, nil, err
	}
	if lt != nil {
		for i, p := range passes {
			if passes[i], err = timePass(p, lt); err != nil {
				return nil, nil, nil, err
			}
		}
	}
	var windows []closedWindow
	var lastWindowNS int64
	lm := &liveMonitor{first: firstFrame{start: start}, lt: lt}
	lm.Monitor, err = serve.NewMonitor(serve.MonitorConfig{
		WindowUS: liveWindowUS,
		Passes:   passes,
		OnWindow: func(endUS int64) {
			windows = append(windows, closedWindow{EndUS: endUS, at: time.Since(start)})
			if lt != nil {
				w := lt.windowNS()
				lt.windowFinalizeMS = append(lt.windowFinalizeMS, float64(w-lastWindowNS)/1e6)
				lastWindowNS = w
			}
		},
	})
	if err != nil {
		return nil, nil, nil, err
	}

	// The scan pump: jigd's timer loop. It stops at the end of capture or
	// when told to, and either way unblocks the tail readers.
	stop := make(chan struct{})
	var pumpErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer tail.Finish()
		tk := time.NewTicker(livePoll)
		defer tk.Stop()
		for {
			finished := false
			select {
			case <-stop:
				return
			case <-genDone:
				// One last scan picks up the final seals and the
				// capture.done marker; without the marker (a failed
				// generator) Finish still drains the readers.
				finished = true
			case <-tk.C:
			}
			if pumpErr = scan(); pumpErr != nil || finished {
				return
			}
			if lt != nil {
				if c := lm.Metrics(); c.FramesTotal > 0 {
					out.wmLagMS = append(out.wmLagMS, float64(c.WatermarkLagUS)/1e3)
				}
			}
			if tail.Done() {
				return
			}
		}
	}()

	var counted *int64
	if lt != nil {
		counted = &lt.readBytes
	}
	set := subset(tail.TraceSet(), lv.roster, counted)
	cfg := core.DefaultConfig()
	cfg.Workers = 1
	cfg.SnapshotEveryUS = liveWindowUS
	cfg.Passes = []core.Pass{lm}
	res, err := core.RunFrom(set, meta.ClockGroups, cfg, nil)
	if err == nil {
		t := time.Now()
		lm.Flush()
		if lt != nil {
			d := int64(time.Since(t))
			lt.finalizeNS += d
			lt.serveNS += d
		}
	}
	close(stop)
	wg.Wait()
	if err == nil {
		err = pumpErr
	}
	if err != nil {
		return nil, nil, nil, err
	}
	if lt != nil {
		out.captureReadMB = float64(lt.readBytes) / 1e6
	}
	return res, lm, windows, nil
}

// pollWait waits one poll interval, or until the generator ends.
func pollWait(genDone <-chan struct{}) {
	select {
	case <-genDone:
	case <-time.After(livePoll):
	}
}

func closed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// subset serves the given radios of a trace set, counting the bytes read
// into n when n is non-nil. Inputs with a zero-copy path keep it when
// nothing is counted, and countReads keeps it otherwise.
func subset(ts *tracefile.TraceSet, radios []int32, n *int64) *tracefile.TraceSet {
	m := make(map[int32]tracefile.Source, len(radios))
	for _, r := range radios {
		m[r] = setSource{ts: ts, radio: r, n: n}
	}
	return tracefile.NewTraceSet(m)
}

type setSource struct {
	ts    *tracefile.TraceSet
	radio int32
	n     *int64
}

func (s setSource) Open() (io.ReadCloser, error) {
	rc, err := s.ts.Open(s.radio)
	if err != nil || s.n == nil {
		return rc, err
	}
	return countReads(rc, s.n), nil
}
