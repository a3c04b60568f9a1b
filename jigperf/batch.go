package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/llc"
	"repro/internal/tracefile"
	"repro/internal/unify"
)

// runBatch is building_batch: the paper's offline use. Three buildings'
// traces, each opened with tracefile.OpenDir and merged by core.RunFrom on
// the serial path (Workers=1) with no analysis passes, one after another.
func runBatch(r *run) (metricSet, error) {
	blds, err := r.genBatch()
	if err != nil {
		return nil, err
	}
	r.prov["workers"] = 1
	m := &meter{heap: r.heap}

	// The untimed first run warms the page cache and is the serial
	// reference every later run, traced or not, must reproduce.
	ref, refRep, err := batchRun(blds, m)
	if err != nil {
		return nil, err
	}
	r.prov["input_jframes"] = refRep.jframes
	if refRep.jframes == 0 {
		return nil, errNoJFrames
	}

	if !r.traced {
		reps, err := r.measureFor(3, func() (rep, error) {
			d, rp, err := batchRun(blds, m)
			r.checks.expect(err == nil && d == ref, "building_batch run digests %s, reference %s", d, ref)
			return rp, err
		})
		if err != nil {
			return nil, err
		}
		return r.endToEnd(reps), nil
	}

	var plain, traced []rep
	var sets []metricSet
	_, err = r.measureFor(1, func() (rep, error) {
		d, rp, err := batchRun(blds, m)
		if err != nil {
			return rp, err
		}
		r.checks.expect(d == ref, "building_batch run digests %s, reference %s", d, ref)
		plain = append(plain, rp)

		lt := newLayers()
		var (
			us      unify.Stats
			ls      llc.Stats
			flows   int64
			digests []string
			trp     rep
		)
		m.begin()
		for _, b := range blds {
			u, _, faults, err := timedUnifier(b.ts, b.meta.ClockGroups, lt)
			if err != nil {
				return rp, err
			}
			bls, ta, err := backHalf(u.Next, &lt.unifyNS, nil, lt)
			if err != nil {
				return rp, err
			}
			if err := faults(); err != nil {
				return rp, err
			}
			d, err := newOutcome(u.Stats, bls, ta, nil).digest()
			if err != nil {
				return rp, err
			}
			digests = append(digests, d)
			us.Add(u.Stats)
			ls.Add(bls)
			flows += ta.Stats.Flows
		}
		m.end(&trp)
		td := strings.Join(digests, ",")
		r.checks.expect(td == ref, "building_batch traced rebuild digests %s, reference %s", td, ref)
		traced = append(traced, trp)
		set := newMetricSet(perLayerUnits)
		set.layerCommon(lt, us, ls, flows)
		set.set("unify.self_ns_per_jframe", per(float64(lt.unifyNS-lt.readNS), float64(lt.jframes)))
		sets = append(sets, set)
		return trp, nil
	})
	if err != nil {
		return nil, err
	}
	out := medianSets(sets)
	tss := make([]*tracefile.TraceSet, len(blds))
	for i, b := range blds {
		tss[i] = b.ts
	}
	dec, err := decodeNSPerRecord(tss...)
	if err != nil {
		return nil, err
	}
	out.set("dot80211.decode_ns_per_record", dec)
	out.set("trace.overhead_pct", overheadPct(traced, plain))
	return out, nil
}

// batchBuilding is one building of building_batch's input, opened.
type batchBuilding struct {
	*building
	ts *tracefile.TraceSet
}

// genBatch generates building_batch's buildings from the run's seed, each
// from a scenario seed of its own, two at a time, and opens them.
func (r *run) genBatch() ([]batchBuilding, error) {
	records, jframes := batchRecords, int64(batchJFrames)
	if r.small {
		records, jframes = smallRecords, smallJFrames
	}
	dir := filepath.Join(r.work, "batch")
	t := time.Now()
	blds := make([]batchBuilding, batchBldgs)
	errs := make([]error, batchBldgs)
	pool := make(chan struct{}, 2)
	var wg sync.WaitGroup
	for k := range blds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pool <- struct{}{}
			defer func() { <-pool }()
			cfg := r.buildingConfig(buildingDaySec)
			if !r.small {
				cfg.FlowScale /= batchFlowDiv
			}
			cfg.Seed = r.seed*batchBldgs + int64(k)
			b, err := genBuilding(filepath.Join(dir, fmt.Sprintf("building-%d", k)), cfg, records, jframes)
			if err == nil {
				blds[k].building = b
				blds[k].ts, err = tracefile.OpenDir(b.dir)
			}
			errs[k] = err
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	var total int64
	for _, b := range blds {
		total += b.records
	}
	r.stampInput(dir, total, time.Since(t))
	return blds, nil
}

// batchRun is one untraced repetition: a serial merge of each building in
// turn. It returns the buildings' outcome digests, joined.
func batchRun(blds []batchBuilding, m *meter) (string, rep, error) {
	probe := &firstFrame{}
	cfg := core.DefaultConfig()
	cfg.Workers = 1
	cfg.Passes = []core.Pass{probe}
	results := make([]*core.Result, 0, len(blds))
	var rp rep
	m.begin()
	probe.start = m.start
	for _, b := range blds {
		res, err := core.RunFrom(b.ts, b.meta.ClockGroups, cfg, nil)
		if err != nil {
			m.end(&rp)
			return "", rp, err
		}
		results = append(results, res)
	}
	m.end(&rp)
	rp.setup = probe.at
	rp.lagsMS = []float64{ms(rp.wall)}
	digests := make([]string, len(results))
	for i, res := range results {
		rp.jframes += res.UnifyStats.JFrames
		d, err := newOutcome(res.UnifyStats, res.LLCStats, res.Transport, nil).digest()
		if err != nil {
			return "", rp, err
		}
		digests[i] = d
	}
	return strings.Join(digests, ","), rp, nil
}

// layerCommon sets the per-layer metrics every traced rebuild measures the
// same way, from its spans and the run's counters.
func (m metricSet) layerCommon(lt *layers, us unify.Stats, ls llc.Stats, flows int64) {
	m.set("tracefile.read_ns_per_record", per(float64(lt.readNS), float64(lt.records)))
	m.set("tracefile.read_mb", float64(lt.readBytes)/1e6)
	m.set("timesync.collect_window_ms", float64(lt.collectNS)/1e6)
	m.set("timesync.bootstrap_ms", float64(lt.bootstrapNS)/1e6)
	m.set("timesync.synced_share", per(float64(lt.synced), float64(lt.radios)))
	m.layerCounts(us, ls, flows)
	m.set("llc.ns_per_jframe", per(float64(lt.llcNS), float64(lt.jframes)))
	m.set("transport.ns_per_exchange", per(float64(lt.transportNS), float64(lt.exchanges)))
	for name, c := range lt.passes {
		m.set("analysis."+name+".ns_per_event", per(float64(c.ns), float64(c.events)))
	}
}

// layerCounts sets the per-layer ratios that come from the pipeline's own
// counters.
func (m metricSet) layerCounts(us unify.Stats, ls llc.Stats, flows int64) {
	m.set("unify.records_per_jframe", per(float64(us.Events), float64(us.JFrames)))
	m.set("unify.error_share", per(float64(us.PhyErrors+us.CRCErrors), float64(us.Events)))
	m.set("unify.resyncs_per_kjframe", per(1000*float64(us.Resyncs), float64(us.JFrames)))
	m.set("llc.exchanges_per_kjframe", per(1000*float64(ls.Exchanges), float64(ls.JFrames)))
	m.set("llc.inferred_share", per(float64(ls.InferredExchanges), float64(ls.Exchanges)))
	m.set("transport.flows", float64(flows))
}

// per divides, reading 0 when nothing was counted.
func per(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// medianSets is the per-metric median over several traced repetitions.
func medianSets(sets []metricSet) metricSet {
	out := newMetricSet(perLayerUnits)
	for name := range out {
		xs := make([]float64, len(sets))
		for i, s := range sets {
			xs[i] = s[name].Value
		}
		out.set(name, median(xs))
	}
	return out
}

// overheadPct is the traced repetitions' CPU time over the untraced
// ones', as a percentage above 1.
func overheadPct(traced, plain []rep) float64 {
	cpu := func(r rep) float64 { return r.cpu.Seconds() }
	return 100 * (per(medianOf(traced, cpu), medianOf(plain, cpu)) - 1)
}
