package main

import (
	"context"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/tracefile"
)

// silentCapture replays a small scenario into a live capture directory in
// which the roster's highest radio recorded nothing, as a quiet monitor
// does on a real deployment. It returns the capture directory, the roster
// and the silent radio.
func silentCapture(t *testing.T, markDone bool) (string, []int32, int32) {
	t.Helper()
	cfg := scenario.Default()
	cfg.Pods, cfg.APs, cfg.Clients = 3, 3, 4
	cfg.Day = 6 * sim.Second
	cfg.Seed = 4
	out, err := scenario.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	meta := scenario.MetaFromOutput(out)
	var roster []int32
	for _, g := range meta.ClockGroups {
		roster = append(roster, g...)
	}
	silent := roster[0]
	for _, r := range roster {
		silent = max(silent, r)
	}
	src := t.TempDir()
	for r, buf := range out.Traces {
		b := buf.Bytes()
		if r == silent {
			b = nil // an empty trace: Replay writes no segment for it
		}
		if err := os.WriteFile(tracefile.TracePath(src, r), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := scenario.WriteMeta(src, meta); err != nil {
		t.Fatal(err)
	}
	dst := t.TempDir()
	if err := scenario.Replay(scenario.ReplayConfig{
		SrcDir: src, DstDir: dst, SegmentUS: 1_000_000, MarkDone: markDone,
	}); err != nil {
		t.Fatal(err)
	}
	return dst, roster, silent
}

// TestWaitRosterSkipsSilentRadio: a roster radio that never seals a
// segment must not hold startup once another radio has rotated, whether
// or not the capture is done; the silent radio is reported.
func TestWaitRosterSkipsSilentRadio(t *testing.T) {
	for _, done := range []bool{false, true} {
		dir, roster, silent := silentCapture(t, done)
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		got, err := waitRoster(ctx, tracefile.NewTailSet(dir), roster, time.Millisecond)
		cancel()
		if err != nil {
			t.Fatalf("done=%v: %v", done, err)
		}
		if want := []int32{silent}; !reflect.DeepEqual(got, want) {
			t.Errorf("done=%v: silent radios %v, want %v", done, got, want)
		}
	}
}

// TestWaitRosterNoneSealed: a finished capture with no sealed segment
// fails with an error naming the roster instead of waiting forever.
func TestWaitRosterNoneSealed(t *testing.T) {
	dir := t.TempDir()
	if err := tracefile.MarkCaptureDone(dir); err != nil {
		t.Fatal(err)
	}
	_, err := waitRoster(context.Background(), tracefile.NewTailSet(dir), []int32{3, 7}, time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "[3 7]") {
		t.Fatalf("got %v, want an error naming radios [3 7]", err)
	}
}

// TestRunWithSilentRadio drives the daemon end to end over a finished
// capture with one silent roster radio: it must merge the others and exit
// cleanly when signalled, not hang at startup. The context is cancelled
// up front, which still lets the pipeline drain every sealed segment.
func TestRunWithSilentRadio(t *testing.T) {
	dir, _, _ := silentCapture(t, true)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	errc := make(chan error, 1)
	go func() { errc <- run(ctx, dir, "localhost:0", time.Second, time.Second, time.Millisecond, "summary") }()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Minute):
		t.Fatal("jigd did not exit")
	}
}
