package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"testing"

	"repro/internal/tracefile"
)

// goldenDefaultTraceSHA256 pins the digest of scenario.Default()'s entire
// serialized monitor-trace set. Every substrate change that is supposed to
// be backward compatible (new scenario features behind config gates, rng
// re-plumbing, MAC refactors) must keep the default scenario bit-for-bit:
// a digest change here means every archived trace and every downstream
// golden number silently shifted.
//
// Repin (only for an INTENTIONAL compatibility break):
//
//	go test ./internal/scenario -run TestDefaultTraceGolden -v
//
// and copy the "got" digest printed in the failure into this constant,
// noting the break in CHANGES.md.
const goldenDefaultTraceSHA256 = "e1b3a315883240cadd4926b1edf09d96d04d8cc75c083717bb9bb23ad8bc2dd2"

// TraceDigest hashes a run's per-radio traces in radio-id order: id,
// length, bytes. The digest covers exactly what jigsim would write to
// disk.
func TraceDigest(out *Output) string {
	ids := make([]int32, 0, len(out.Traces))
	for id := range out.Traces {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	h := sha256.New()
	var hdr [12]byte
	for _, id := range ids {
		b := out.Traces[id].Bytes()
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(id))
		binary.LittleEndian.PutUint64(hdr[4:12], uint64(len(b)))
		h.Write(hdr[:])
		h.Write(b)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestDefaultTraceGolden is the compatibility gate PR 2 only checked by
// hand: the default scenario's trace set must stay byte-identical.
func TestDefaultTraceGolden(t *testing.T) {
	out, err := Run(Default())
	if err != nil {
		t.Fatal(err)
	}
	got := TraceDigest(out)
	if got != goldenDefaultTraceSHA256 {
		t.Fatalf("scenario.Default() trace digest changed:\n  got  %s\n  want %s\n"+
			"If this break is intentional, repin goldenDefaultTraceSHA256 with the got value and document it in CHANGES.md.",
			got, goldenDefaultTraceSHA256)
	}
}

// goldenDefaultRecordSHA256 pins the digest of scenario.Default()'s
// decoded monitor records: what the traces say, independent of how their
// blocks are compressed. A container or codec change (block magic, block
// codec, index layout) moves goldenDefaultTraceSHA256 but must leave this
// one untouched; only a change to the simulated captures may move it.
const goldenDefaultRecordSHA256 = "1c248c2fa921c906981bd96424462417c08607bb4e56b5c8c1976ebe56818c56"

// RecordDigest hashes a run's decoded per-radio record streams in
// radio-id order: id and record count per radio, then every Record field
// and the frame bytes of each record.
func RecordDigest(tb testing.TB, out *Output) string {
	tb.Helper()
	ids := make([]int32, 0, len(out.Traces))
	for id := range out.Traces {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	h := sha256.New()
	for _, id := range ids {
		recs, err := tracefile.ReadAll(bytes.NewReader(out.Traces[id].Bytes()))
		if err != nil {
			tb.Fatalf("radio %d: %v", id, err)
		}
		var hdr [12]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(id))
		binary.LittleEndian.PutUint64(hdr[4:12], uint64(len(recs)))
		h.Write(hdr[:])
		for _, r := range recs {
			var b [21]byte
			binary.LittleEndian.PutUint64(b[0:8], uint64(r.LocalUS))
			binary.LittleEndian.PutUint32(b[8:12], uint32(r.RadioID))
			b[12] = r.Channel
			b[13] = uint8(r.RSSIdBm)
			binary.LittleEndian.PutUint16(b[14:16], r.Rate)
			b[16] = r.Flags
			binary.LittleEndian.PutUint16(b[17:19], r.OrigLen)
			binary.LittleEndian.PutUint16(b[19:21], uint16(len(r.Frame)))
			h.Write(b[:])
			h.Write(r.Frame)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestDefaultRecordGolden is the format-independent companion of
// TestDefaultTraceGolden: the default scenario's decoded records must stay
// identical across any change to the trace container or its codec.
func TestDefaultRecordGolden(t *testing.T) {
	out, err := Run(Default())
	if err != nil {
		t.Fatal(err)
	}
	if got := RecordDigest(t, out); got != goldenDefaultRecordSHA256 {
		t.Fatalf("scenario.Default() decoded record digest changed:\n  got  %s\n  want %s",
			got, goldenDefaultRecordSHA256)
	}
}
