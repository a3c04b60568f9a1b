package main

import (
	"bufio"
	"container/heap"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dot80211"
	"repro/internal/hmerge"
	"repro/internal/scenario"
	"repro/internal/tracefile"
	"repro/internal/unify"
)

// Campus settings: level 1 unifies buildings on a pool of campusPool
// goroutines, level 2 merges at campusWorkers.
const (
	campusPool    = 2
	campusWorkers = 2
	// reorderSlackFactor is hmerge.Unify's reorder slack in unify search
	// windows; the traced level-1 rebuild must hold frames exactly as long
	// to write the same stream.
	reorderSlackFactor = 16
)

// campus is one generated campus: per-building trace directories and the
// analysis parameters its meta.json implies.
type campus struct {
	blds   []string
	groups [][][]int32
	params analysis.PassParams
}

// passParams builds the pass parameters jigd and jiganalyze derive from a
// trace directory's meta.json: no simulator ground truth, so the "all"
// selector runs every truth-free pass.
func passParams(meta scenario.Meta) analysis.PassParams {
	daySec := meta.DaySec
	if daySec == 0 {
		daySec = 86_400
	}
	apSet := scenario.APSet(meta.APs)
	return analysis.PassParams{
		SlotUS:     int64(daySec * 1e6 / 24),
		MinPackets: 50,
		IsAP:       func(m dot80211.MAC) bool { return apSet[m] },
	}
}

// runCampus is campus_hier: scenario.Campus cut to three buildings. Level
// 1 writes one .jfs stream per building with hmerge.UnifyDir; level 2
// merges them with core.RunHierarchicalPaths at Workers=2 under every
// truth-free pass, which are then finalized one-shot.
func runCampus(r *run) (metricSet, error) {
	dir := filepath.Join(r.work, "campus")
	t := time.Now()
	if _, err := scenario.RunCampus(r.campusConfig(), dir, campusPool); err != nil {
		return nil, fmt.Errorf("generate campus: %w", err)
	}
	cp := &campus{}
	var err error
	if cp.blds, err = scenario.ListBuildings(dir); err != nil {
		return nil, err
	}
	perBuilding, jframes := campusBuildingRecords, int64(campusBuildingJFrames)
	if r.small {
		perBuilding, jframes = smallRecords, smallJFrames
	}
	records := 0
	for _, b := range cp.blds {
		meta, err := scenario.ReadMeta(b)
		if err != nil {
			return nil, err
		}
		kept, err := cutBuilding(b, perBuilding)
		if err != nil {
			return nil, err
		}
		if kept, err = fitJFrames(b, meta.ClockGroups, kept, jframes); err != nil {
			return nil, err
		}
		records += kept
		cp.groups = append(cp.groups, meta.ClockGroups)
	}
	r.stampInput(dir, int64(records), time.Since(t))
	meta, err := scenario.ReadMeta(dir)
	if err != nil {
		return nil, err
	}
	cp.params = passParams(meta)
	r.prov["workers"] = campusWorkers
	r.prov["level1_pool"] = campusPool

	m := &meter{heap: r.heap}
	streams := filepath.Join(r.work, "streams")
	if err := os.MkdirAll(streams, 0o755); err != nil {
		return nil, err
	}
	// The untimed first run is the serial reference (level 2 at
	// Workers=1); every parallel run must reproduce its outcome.
	ref, refRep, _, err := cp.run(m, streams, 1)
	if err != nil {
		return nil, err
	}
	r.prov["input_jframes"] = refRep.jframes
	if refRep.jframes == 0 {
		return nil, errNoJFrames
	}

	if !r.traced {
		reps, err := r.measureFor(3, func() (rep, error) {
			d, rp, _, err := cp.run(m, streams, campusWorkers)
			r.checks.expect(err == nil && d == ref, "campus_hier Workers=%d digest %s, Workers=1 %s", campusWorkers, d, ref)
			return rp, err
		})
		if err != nil {
			return nil, err
		}
		return r.endToEnd(reps), nil
	}

	rebuilt := filepath.Join(r.work, "rebuilt")
	if err := os.MkdirAll(rebuilt, 0o755); err != nil {
		return nil, err
	}
	var traced []rep
	var sets []metricSet
	_, err = r.measureFor(1, func() (rep, error) {
		d, rp, hier, err := cp.run(m, streams, campusWorkers)
		if err != nil {
			return rp, err
		}
		r.checks.expect(d == ref, "campus_hier Workers=%d digest %s, Workers=1 %s", campusWorkers, d, ref)

		lt := newLayers()
		td, trp, err := cp.traced(m, rebuilt, lt)
		if err != nil {
			return rp, err
		}
		r.checks.expect(td == ref, "campus_hier traced rebuild digest %s, reference %s", td, ref)
		for _, b := range cp.blds {
			name := filepath.Base(b) + ".jfs"
			same, err := sameFile(filepath.Join(streams, name), filepath.Join(rebuilt, name))
			if err != nil {
				return rp, err
			}
			r.checks.expect(same, "campus_hier traced level-1 stream %s differs from hmerge.UnifyDir's", name)
		}
		traced = append(traced, trp)
		set := newMetricSet(perLayerUnits)
		set.layerCommon(lt, lt.unify, lt.llc, lt.ta.Stats.Flows)
		set.set("unify.self_ns_per_jframe", per(float64(lt.unifyNS-lt.readNS), float64(lt.jfsFrames)))
		set.set("hmerge.write_ns_per_jframe", per(float64(lt.jfsWriteNS), float64(lt.jfsFrames)))
		set.set("hmerge.jfs_bytes_per_jframe", per(float64(lt.jfsBytes), float64(lt.jfsFrames)))
		set.set("hmerge.merge_next_ns_per_jframe", per(float64(lt.mergeNS), float64(lt.jframes)))
		set.set("analysis.finalize_ms", float64(lt.finalizeNS)/1e6)
		set.set("hmerge.unify_dir_s", hier.unifyDir.Seconds())
		set.set("core.hier_global_wall_s", hier.wall.Seconds())
		set.set("core.hier_global_cpu_s", hier.cpu.Seconds())
		sets = append(sets, set)
		return trp, nil
	})
	if err != nil {
		return nil, err
	}
	out := medianSets(sets)
	ts, err := tracefile.OpenDirs(cp.blds...)
	if err != nil {
		return nil, err
	}
	dec, err := decodeNSPerRecord(ts)
	if err != nil {
		return nil, err
	}
	out.set("dot80211.decode_ns_per_record", dec)
	out.set("trace.overhead_pct", overheadPct(traced, []rep{refRep}))
	return out, nil
}

// hierTimes splits an untraced campus run into its levels.
type hierTimes struct {
	unifyDir  time.Duration // level 1, wall
	wall, cpu time.Duration // core.RunHierarchicalPaths
}

// run is one untraced campus run: level 1 on the pool, then level 2 at
// the given worker count and the one-shot finalize.
func (cp *campus) run(m *meter, streams string, workers int) (string, rep, hierTimes, error) {
	var rp rep
	var ht hierTimes
	probe := &firstFrame{}
	passes, err := analysis.NewPasses("all", cp.params)
	if err != nil {
		return "", rp, ht, err
	}
	cfg := core.DefaultConfig()
	cfg.Workers = workers
	cfg.Passes = append([]core.Pass{probe}, analysis.CorePasses(passes)...)

	m.begin()
	probe.start = m.start
	paths, err := cp.unifyAll(streams)
	if err != nil {
		return "", rp, ht, err
	}
	ht.unifyDir = time.Since(m.start)
	cpu0, t := cpuTime(), time.Now()
	res, err := core.RunHierarchicalPaths(paths, cfg, nil)
	ht.wall, ht.cpu = time.Since(t), cpuTime()-cpu0
	if err != nil {
		return "", rp, ht, err
	}
	reports, err := finalReports(passes)
	m.end(&rp)
	if err != nil {
		return "", rp, ht, err
	}
	rp.setup = probe.at
	rp.jframes = res.UnifyStats.JFrames
	rp.lagsMS = []float64{ms(rp.wall)}
	d, err := newOutcome(res.UnifyStats, res.LLCStats, res.Transport, reports).digest()
	return d, rp, ht, err
}

// unifyAll runs hmerge.UnifyDir for every building on a pool of
// campusPool goroutines, which take buildings in order, and returns the
// stream paths in building order.
func (cp *campus) unifyAll(outDir string) ([]string, error) {
	paths := make([]string, len(cp.blds))
	errs := make([]error, len(cp.blds))
	next := make(chan int, len(cp.blds))
	for k, b := range cp.blds {
		paths[k] = filepath.Join(outDir, filepath.Base(b)+".jfs")
		next <- k
	}
	close(next)
	var wg sync.WaitGroup
	for range campusPool {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				_, errs[k] = hmerge.UnifyDir(cp.blds[k], paths[k], cp.groups[k], hmerge.UnifyConfig{Workers: 1})
			}
		}()
	}
	wg.Wait()
	return paths, errors.Join(errs...)
}

// traced is the serial campus rebuilt from public calls with a span
// around every layer call: each building's bootstrap, unifier, reorder
// heap and hmerge.Writer in turn, then the k-way hmerge.Merger feeding
// the serial back half and the one-shot finalize.
func (cp *campus) traced(m *meter, outDir string, lt *layers) (string, rep, error) {
	var rp rep
	m.begin()
	paths := make([]string, len(cp.blds))
	for k, b := range cp.blds {
		paths[k] = filepath.Join(outDir, filepath.Base(b)+".jfs")
		if err := unifyBuildingTraced(b, paths[k], cp.groups[k], lt); err != nil {
			return "", rp, err
		}
	}
	streams, err := hmerge.OpenStreams(paths)
	if err != nil {
		return "", rp, err
	}
	defer func() {
		for _, s := range streams {
			_ = s.Close() // read side; stream errors surface through the merge
		}
	}()
	for _, s := range streams {
		lt.unify.Add(s.Meta.Unify)
	}
	passes, err := analysis.NewPasses("all", cp.params)
	if err != nil {
		return "", rp, err
	}
	merger := hmerge.NewMerger(streams, false)
	lt.llc, lt.ta, err = backHalf(merger.Next, &lt.mergeNS, passes, lt)
	if err != nil {
		return "", rp, err
	}
	res := &core.Result{UnifyStats: lt.unify, LLCStats: lt.llc, Transport: lt.ta}
	for _, p := range passes {
		if rs, ok := p.(core.ResultSink); ok {
			rs.SetResult(res)
		}
	}
	t := time.Now()
	reports, err := finalReports(passes)
	lt.finalizeNS += int64(time.Since(t))
	m.end(&rp)
	if err != nil {
		return "", rp, err
	}
	d, err := newOutcome(lt.unify, lt.llc, lt.ta, reports).digest()
	return d, rp, err
}

// unifyBuildingTraced is hmerge.UnifyDir rebuilt from public calls: the
// serial bootstrap and unifier over timed sources, the bounded reorder
// heap, and a timed hmerge.Writer, plus the same metadata sidecar.
func unifyBuildingTraced(srcDir, outPath string, groups [][]int32, lt *layers) error {
	ts, err := tracefile.OpenDir(srcDir)
	if err != nil {
		return err
	}
	u, boot, faults, err := timedUnifier(ts, groups, lt)
	if err != nil {
		return err
	}
	f, err := os.Create(outPath)
	if err != nil {
		return err
	}
	defer f.Close() // error paths; the success path checks Close below
	bw := bufio.NewWriterSize(f, 128*1024)
	w, err := hmerge.NewWriter(bw)
	if err != nil {
		return err
	}
	slackUS := reorderSlackFactor * unify.DefaultConfig().SearchWindowUS
	var rh reorderHeap
	flush := func(limitUS int64) error {
		for rh.Len() > 0 && rh[0].j.UnivUS <= limitUS {
			it := heap.Pop(&rh).(reorderItem)
			t := time.Now()
			err := w.WriteJFrame(it.j)
			lt.jfsWriteNS += int64(time.Since(t))
			it.j.Release()
			if err != nil {
				return err
			}
		}
		return nil
	}
	var seq int64
	maxUS := int64(math.MinInt64)
	for {
		t := time.Now()
		j, err := u.Next()
		lt.unifyNS += int64(time.Since(t))
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		heap.Push(&rh, reorderItem{j: j, seq: seq})
		seq++
		maxUS = max(maxUS, j.UnivUS)
		if err := flush(maxUS - slackUS); err != nil {
			return err
		}
	}
	if err := flush(math.MaxInt64); err != nil {
		return err
	}
	t := time.Now()
	err = w.Close()
	if err == nil {
		err = bw.Flush()
	}
	lt.jfsWriteNS += int64(time.Since(t))
	if err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := faults(); err != nil {
		return err
	}
	fi, err := os.Stat(outPath)
	if err != nil {
		return err
	}
	lt.jfsBytes += fi.Size()
	lt.jfsFrames += w.JFrames
	return hmerge.WriteMetaFile(hmerge.MetaPath(outPath), &hmerge.Meta{
		Building:    filepath.Base(srcDir),
		Radios:      ts.Radios(),
		JFrames:     w.JFrames,
		FirstUnivUS: w.FirstUnivUS,
		LastUnivUS:  w.WatermarkUS,
		Unify:       u.Stats,
		Bootstrap: hmerge.BootstrapMeta{
			OffsetUS:   boot.OffsetUS,
			Root:       boot.Root,
			Unsynced:   boot.Unsynced,
			RefFrames:  boot.RefFrames,
			Candidates: boot.Candidates,
		},
	})
}

// reorderItem and reorderHeap mirror hmerge.Unify's reorder heap: a
// min-heap by (UnivUS, emission sequence).
type reorderItem struct {
	j   *unify.JFrame
	seq int64
}

type reorderHeap []reorderItem

func (h reorderHeap) Len() int { return len(h) }
func (h reorderHeap) Less(i, k int) bool {
	if h[i].j.UnivUS != h[k].j.UnivUS {
		return h[i].j.UnivUS < h[k].j.UnivUS
	}
	return h[i].seq < h[k].seq
}
func (h reorderHeap) Swap(i, k int) { h[i], h[k] = h[k], h[i] }
func (h *reorderHeap) Push(x any)   { *h = append(*h, x.(reorderItem)) }
func (h *reorderHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	old[len(old)-1] = reorderItem{}
	*h = old[:len(old)-1]
	return it
}

// sameFile reports whether two files have identical contents.
func sameFile(a, b string) (bool, error) {
	ha, err := fileHash(a)
	if err != nil {
		return false, err
	}
	hb, err := fileHash(b)
	if err != nil {
		return false, err
	}
	return ha == hb, nil
}

func fileHash(path string) ([32]byte, error) {
	var sum [32]byte
	f, err := os.Open(path)
	if err != nil {
		return sum, err
	}
	defer f.Close() // read only
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return sum, err
	}
	copy(sum[:], h.Sum(nil))
	return sum, nil
}
