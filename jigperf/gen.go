package main

import (
	"bufio"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/tracefile"
)

// Input sizes. A scenario's day compresses a fixed daily schedule of
// client sessions and flows, so the flows, not the day's length, set most
// of an input's size, and with the presets' few large flows two seeds can
// differ twofold in cost per jframe. The workloads keep each preset's
// radios and APs but spread the same kind of traffic over twice the
// clients and many more, smaller flows (homogenize), which evens out the
// cost per jframe across seeds. Days still differ in traffic volume, so
// building_batch, and each building of campus_hier, cuts its day to a
// fixed record count. Records per jframe still differ by up to a tenth
// between seeds, and a batch run's report lag is the time to merge its
// whole input, so each building is cut again to a fixed jframe count
// (fitJFrames). A building's layout also sets its allocations and its
// live heap, which differ by up to a third between seeds; so
// building_batch merges three smaller buildings, as campus_hier does.
// The sizes keep a whole run well under a minute on two cores, with
// several repetitions.
const (
	buildingDaySec        = 30.0    // per BuildingScale building of 120 radios: ~0.75M-1.2M records
	batchBldgs            = 3       // buildings in building_batch's input
	batchFlowDiv          = 3       // building_batch's flows are a third the size: ~0.4M-0.5M records per day
	batchRecords          = 250_000 // each building_batch building's first cut (see cutBuilding): ~75k-90k jframes
	batchJFrames          = 73_000  // each building_batch building's jframes after its second cut (see fitJFrames)
	campusDaySec          = 15.0    // per Campus building of 96 radios: ~0.4M-0.5M records
	campusBuildingRecords = 350_000 // each campus_hier building's first cut from its day: ~100k-130k jframes
	campusBuildingJFrames = 100_000 // each campus_hier building's jframes after its second cut
	campusBldgs           = 3
	smallDaySec           = 8.0    // scenario.Default's quarter building, for tests
	smallRecords          = 10_000 // the cut for tests
	smallJFrames          = 3_000  // the second cut for tests
)

// homogenize doubles a scenario's clients and makes their flows twice as
// frequent and an eighth the size.
func homogenize(cfg scenario.Config) scenario.Config {
	cfg.Clients *= 2
	cfg.FlowMeanGap /= 2
	if cfg.FlowScale == 0 {
		cfg.FlowScale = 1
	}
	cfg.FlowScale /= 8
	return cfg
}

// buildingConfig is the building workloads' scenario with a day of the
// given length.
func (r *run) buildingConfig(daySec float64) scenario.Config {
	if r.small {
		cfg := scenario.Default()
		cfg.Day = sim.Seconds(smallDaySec)
		return cfg
	}
	cfg := homogenize(scenario.BuildingScale())
	cfg.Day = sim.Seconds(daySec)
	return cfg
}

// campusConfig is campus_hier's scenario.
func (r *run) campusConfig() scenario.CampusConfig {
	cc := scenario.Campus()
	cc.Buildings = campusBldgs
	cc.Building = homogenize(cc.Building)
	cc.Building.Day = sim.Seconds(campusDaySec)
	if r.small {
		cc.Building = scenario.Default()
		cc.Building.Day = sim.Seconds(smallDaySec)
	}
	cc.Seed = r.seed
	return cc
}

// building is one generated building trace directory.
type building struct {
	dir     string
	meta    scenario.Meta
	records int64 // monitor records it holds
}

// genBuilding simulates cfg, spilling the traces to dir with their
// meta.json sidecar, and cuts them to maxRecords records when that is
// positive, then to about wantJFrames jframes when that is positive.
func genBuilding(dir string, cfg scenario.Config, maxRecords int, wantJFrames int64) (*building, error) {
	cfg.SpillDir = dir
	out, err := scenario.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("generate building: %w", err)
	}
	meta := scenario.MetaFromOutput(out)
	if err := scenario.WriteMeta(dir, meta); err != nil {
		return nil, err
	}
	records := out.MonitorRecords
	if maxRecords > 0 {
		kept, err := cutBuilding(dir, maxRecords)
		if err != nil {
			return nil, err
		}
		if wantJFrames > 0 {
			if kept, err = fitJFrames(dir, meta.ClockGroups, kept, wantJFrames); err != nil {
				return nil, err
			}
		}
		records = int64(kept)
	}
	return &building{dir: dir, meta: meta, records: records}, nil
}

// stampInput records an input's size and generation time in the
// provenance.
func (r *run) stampInput(dir string, records int64, gen time.Duration) {
	var bytes int64
	_ = filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if fi, err := d.Info(); err == nil {
				bytes += fi.Size()
			}
		}
		return nil
	}) // size is informational; a walk error leaves it short
	r.prov["input_records"] = records
	r.prov["input_bytes"] = bytes
	r.prov["generation_s"] = gen.Seconds()
}

// liveRoster picks the radios a live daemon started early in the
// capture can serve. A radio's first rotation segment seals when it
// records past its first segment period (or when the capture ends), and
// the daemon's trace set is fixed at the radios sealed when it starts. So
// the roster is every radio whose first segment seals within cutoffUS of
// trace time from the capture's start; radios that record nothing, or
// start too late, stay out of the run. It also returns the earliest
// record time, the origin of scenario.Replay's pacing schedule.
func liveRoster(dir string, segmentUS, cutoffUS int64) (roster []int32, firstLocal int64, err error) {
	ts, err := tracefile.OpenDir(dir)
	if err != nil {
		return nil, 0, err
	}
	firsts := map[int32]int64{}
	seals := map[int32]int64{}
	for _, radio := range ts.Radios() {
		rc, err := ts.Open(radio)
		if err != nil {
			return nil, 0, err
		}
		rd := tracefile.NewReader(rc)
		for {
			rec, err := rd.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				_ = rc.Close() // the read error wins
				return nil, 0, fmt.Errorf("radio %d: %w", radio, err)
			}
			first, seen := firsts[radio]
			if !seen {
				firsts[radio] = rec.LocalUS
				continue
			}
			if rec.LocalUS >= first+segmentUS {
				seals[radio] = rec.LocalUS
				break
			}
		}
		if err := rc.Close(); err != nil {
			return nil, 0, err
		}
	}
	started := false
	for _, f := range firsts {
		if !started || f < firstLocal {
			firstLocal, started = f, true
		}
	}
	for _, radio := range ts.Radios() {
		if at, ok := seals[radio]; ok && at <= firstLocal+cutoffUS {
			roster = append(roster, radio)
		}
	}
	return roster, firstLocal, nil
}

// cutBuilding cuts a building's traces at the trace time by which they
// hold n records in all, rewriting each radio's trace file, so that every
// seed's input is the same size even though days differ in traffic. It
// returns how many records the building holds after the cut (all of them
// when the day holds fewer than n).
func cutBuilding(dir string, n int) (int, error) {
	ts, err := tracefile.OpenDir(dir)
	if err != nil {
		return 0, err
	}
	var stamps []int64
	for _, radio := range ts.Radios() {
		if err := eachRecord(ts, radio, func(rec tracefile.Record) error {
			stamps = append(stamps, rec.LocalUS)
			return nil
		}); err != nil {
			return 0, err
		}
	}
	if len(stamps) <= n {
		return len(stamps), nil
	}
	sort.Slice(stamps, func(i, j int) bool { return stamps[i] < stamps[j] })
	cutUS := stamps[n]
	kept := 0
	for _, radio := range ts.Radios() {
		path := tracefile.TracePath(dir, radio)
		f, err := os.Create(path + ".cut")
		if err != nil {
			return 0, err
		}
		bw := bufio.NewWriter(f)
		w := tracefile.NewWriter(bw)
		err = eachRecord(ts, radio, func(rec tracefile.Record) error {
			if rec.LocalUS >= cutUS {
				return nil
			}
			kept++
			return w.WriteRecord(rec)
		})
		if err == nil {
			err = w.Close()
		}
		if err == nil {
			err = bw.Flush()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return 0, fmt.Errorf("cut radio %d: %w", radio, err)
		}
		if err := os.Rename(path+".cut", path); err != nil {
			return 0, err
		}
	}
	return kept, nil
}

// fitJFrames cuts a building of n records further, so that a serial merge
// of it yields about want jframes, and returns how many records it keeps.
// Records per jframe change little along one building's day, so one
// merge and one proportional cut land within a few percent of want. A
// building whose merge yields no more than want is left as it is.
func fitJFrames(dir string, groups [][]int32, n int, want int64) (int, error) {
	ts, err := tracefile.OpenDir(dir)
	if err != nil {
		return 0, err
	}
	cfg := core.DefaultConfig()
	cfg.Workers = 1
	res, err := core.RunFrom(ts, groups, cfg, nil)
	if err != nil {
		return 0, fmt.Errorf("fit input to %d jframes: %w", want, err)
	}
	got := res.UnifyStats.JFrames
	if got <= want {
		return n, nil
	}
	return cutBuilding(dir, int(float64(n)*float64(want)/float64(got)))
}

// eachRecord calls fn with every record of one radio's trace.
func eachRecord(ts *tracefile.TraceSet, radio int32, fn func(tracefile.Record) error) error {
	rc, err := ts.Open(radio)
	if err != nil {
		return err
	}
	defer rc.Close() // read only
	rd := tracefile.NewReader(rc)
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("radio %d: %w", radio, err)
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
}
