// Package hmerge implements the hierarchical merge's intermediate format
// and the global k-way merge over it: the two-level pipeline that takes
// Jigsaw from one building to a campus.
//
// Level 1 (Unify/UnifyDir): each per-building worker — a goroutine in this
// process or a separate cmd/jigunify process — bootstraps and unifies its
// building's trace directory exactly as core.RunFrom would, but instead of
// reconstructing exchanges it serializes the unifier's emission stream to a
// sorted intermediate jframe stream plus a metadata sidecar (bootstrap
// offsets, unify stats, watermark). Unification is deterministic, so every
// worker produces byte-identical files for the same inputs regardless of
// where it runs.
//
// Level 2 (Merger): the global merge opens all buildings' streams and
// interleaves them into one canonically-ordered jframe sequence by
// (UnivUS, stream index) — valid because each stream is sorted
// non-decreasing by UnivUS, the unifier's emission-order invariant, which
// the Writer enforces at encode time. core.RunHierarchical drives the
// ordinary reconstruction/transport/pass pipeline over that sequence.
//
// The container mirrors the tracefile format's: lzblock-compressed blocks
// around a 64 KB raw target, each with a length-checked header, so the
// reader streams one block at a time and a corrupt or hostile header cannot
// demand unbounded allocation.
package hmerge

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/dot80211"
	"repro/internal/lzblock"
	"repro/internal/unify"
)

// Stream-level and block-level magic. The stream header is written once,
// ahead of the first block; every block repeats the block magic so a reader
// resynchronizing mid-file fails loudly instead of misparsing. The stream
// header's version byte follows the magic: version 2 compresses blocks with
// lzblock. Version 1 (block magic blockMagicV1) used DEFLATE and is
// recognized only to name it in the error.
var (
	streamMagic  = [4]byte{'J', 'F', 'S', '1'}
	blockMagic   = [4]byte{'J', 'F', 'B', '2'}
	blockMagicV1 = [4]byte{'J', 'F', 'S', 'B'}
)

// streamVersion is the format version this package writes and reads.
const streamVersion = 2

// errVersion1 reports a .jfs stream written in version 1 of the format,
// whose blocks are DEFLATE-compressed.
var errVersion1 = errors.New("hmerge: version-1 (DEFLATE) stream: this build reads only version-2 (LZ) streams; re-run the unify step to regenerate it")

// jframe record flags.
const (
	flagValid   uint8 = 1 << 0
	flagPhyOnly uint8 = 1 << 1
)

// instance flags.
const (
	instFCSOK  uint8 = 1 << 0
	instPhyErr uint8 = 1 << 1
)

// recHdrLen is the fixed per-jframe header: flags u8, channel u8, rate u16,
// wireLen u16, nWire u16, nInst u16, univUS i64, dispersionUS i64.
const recHdrLen = 26

// instLen is one serialized instance: radio i32, localUS i64, univUS i64,
// rssi i8, flags u8.
const instLen = 22

// blockTarget is the uncompressed block size at which the writer flushes,
// matching the tracefile format's 64 KB blocks.
const blockTarget = 64 * 1024

// maxBlockLen bounds the compressed and uncompressed size a block header
// may claim; legitimate blocks flush around blockTarget plus one record.
const maxBlockLen = 1 << 26

// instPrealloc caps the instance-slice preallocation per record: a jframe
// cannot have more instances than radios that heard it, so anything beyond
// a few hundred in a claimed count is corrupt input probing the allocator.
const instPrealloc = 256

// Writer serializes a sorted jframe stream. It enforces the format's
// ordering invariant — UnivUS non-decreasing — because the global merge is
// only correct over sorted inputs; an out-of-order write is a bug in the
// producer, reported as an error rather than silently breaking the merge.
type Writer struct {
	w       io.Writer
	buf     bytes.Buffer
	comp    []byte // reused compressed-block scratch
	count   int32
	firstUS int64
	lastUS  int64
	started bool
	closed  bool
	// JFrames and WatermarkUS accumulate over the whole stream for the
	// metadata sidecar: total records and the last (= maximum) UnivUS.
	JFrames     int64
	FirstUnivUS int64
	WatermarkUS int64
}

// NewWriter starts a stream on w, emitting the stream header immediately.
func NewWriter(w io.Writer) (*Writer, error) {
	var hdr [8]byte
	copy(hdr[0:4], streamMagic[:])
	hdr[4] = streamVersion
	if _, err := w.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("hmerge: stream header: %w", err)
	}
	return &Writer{w: w}, nil
}

// WriteJFrame appends one jframe, flushing a block when the target size is
// reached.
func (w *Writer) WriteJFrame(j *unify.JFrame) error {
	if w.closed {
		return errors.New("hmerge: writer closed")
	}
	if w.started && j.UnivUS < w.lastUS {
		return fmt.Errorf("hmerge: out-of-order jframe: %d after %d (stream must be sorted by UnivUS)",
			j.UnivUS, w.lastUS)
	}
	if len(j.Wire) > int(^uint16(0)) || len(j.Instances) > int(^uint16(0)) || j.WireLen > int(^uint16(0)) {
		return fmt.Errorf("hmerge: jframe exceeds format limits (wire %d, instances %d)",
			len(j.Wire), len(j.Instances))
	}
	if !w.started {
		w.started = true
		w.FirstUnivUS = j.UnivUS
	}
	w.lastUS = j.UnivUS
	w.WatermarkUS = j.UnivUS
	w.JFrames++

	if w.count == 0 {
		w.firstUS = j.UnivUS
	}
	var flags uint8
	if j.Valid {
		flags |= flagValid
	}
	if j.PhyOnly {
		flags |= flagPhyOnly
	}
	var hdr [recHdrLen]byte
	hdr[0] = flags
	hdr[1] = uint8(j.Channel)
	binary.LittleEndian.PutUint16(hdr[2:4], uint16(j.Rate))
	binary.LittleEndian.PutUint16(hdr[4:6], uint16(j.WireLen))
	binary.LittleEndian.PutUint16(hdr[6:8], uint16(len(j.Wire)))
	binary.LittleEndian.PutUint16(hdr[8:10], uint16(len(j.Instances)))
	binary.LittleEndian.PutUint64(hdr[10:18], uint64(j.UnivUS))
	binary.LittleEndian.PutUint64(hdr[18:26], uint64(j.DispersionUS))
	w.buf.Write(hdr[:])
	w.buf.Write(j.Wire)
	for _, in := range j.Instances {
		var ib [instLen]byte
		binary.LittleEndian.PutUint32(ib[0:4], uint32(in.Radio))
		binary.LittleEndian.PutUint64(ib[4:12], uint64(in.LocalUS))
		binary.LittleEndian.PutUint64(ib[12:20], uint64(in.UnivUS))
		ib[20] = uint8(in.RSSIdBm)
		var iflags uint8
		if in.FCSOK {
			iflags |= instFCSOK
		}
		if in.PhyErr {
			iflags |= instPhyErr
		}
		ib[21] = iflags
		w.buf.Write(ib[:])
	}
	w.count++
	if w.buf.Len() >= blockTarget {
		return w.flushBlock()
	}
	return nil
}

// flushBlock compresses and emits the pending block.
func (w *Writer) flushBlock() error {
	if w.count == 0 {
		return nil
	}
	w.comp = lzblock.Compress(w.comp[:0], w.buf.Bytes())
	var bh [24]byte
	copy(bh[0:4], blockMagic[:])
	binary.LittleEndian.PutUint32(bh[4:8], uint32(len(w.comp)))
	binary.LittleEndian.PutUint32(bh[8:12], uint32(w.buf.Len()))
	binary.LittleEndian.PutUint32(bh[12:16], uint32(w.count))
	binary.LittleEndian.PutUint64(bh[16:24], uint64(w.firstUS))
	if _, err := w.w.Write(bh[:]); err != nil {
		return err
	}
	if _, err := w.w.Write(w.comp); err != nil {
		return err
	}
	w.buf.Reset()
	w.count = 0
	return nil
}

// Close flushes the final block. The writer is unusable afterwards.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	return w.flushBlock()
}

// Reader iterates jframes from an intermediate stream. Frames are
// re-derived from the stored wire bytes with the same partial decode the
// unifier applies at emission, so a decoded stream is structurally
// identical to the one the unify worker serialized.
//
// Returned frames are pooled (unify.NewJFrame) and OWNED by the caller,
// who must Release each one — the .jfs decode path participates in the
// same frame lifecycle as the live unifier. The reader's block buffers
// are reused across blocks; every frame's wire bytes are copied into the
// frame's own storage, so frames are independent of the reader.
type Reader struct {
	r       io.Reader
	comp    []byte // reused compressed-block buffer
	raw     []byte // reused decompressed-block buffer
	pos     int    // parse cursor into raw
	started bool
	lastUS  int64
	haveUS  bool
	err     error
}

// NewReader wraps an intermediate stream for iteration.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// Next returns the next jframe. io.EOF signals a clean end of stream; any
// other error is a corrupt stream (intermediate files are pipeline-owned,
// so unlike a dead monitor radio this is fatal, not droppable).
func (t *Reader) Next() (*unify.JFrame, error) {
	if t.err != nil {
		return nil, t.err
	}
	if !t.started {
		if err := t.readStreamHeader(); err != nil {
			t.err = err
			return nil, err
		}
		t.started = true
	}
	for t.pos >= len(t.raw) {
		if err := t.loadBlock(); err != nil {
			t.err = err
			return nil, err
		}
	}
	j, err := t.decodeRecord()
	if err != nil {
		t.err = err
		return nil, err
	}
	// The format's contract: streams are sorted. Enforce on read too, so a
	// corrupted stream cannot silently break the k-way merge's ordering.
	if t.haveUS && j.UnivUS < t.lastUS {
		t.err = fmt.Errorf("hmerge: stream out of order: %d after %d", j.UnivUS, t.lastUS)
		j.Release()
		return nil, t.err
	}
	t.lastUS, t.haveUS = j.UnivUS, true
	return j, nil
}

func (t *Reader) readStreamHeader() error {
	var hdr [8]byte
	if _, err := io.ReadFull(t.r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF || err == io.EOF {
			return fmt.Errorf("hmerge: truncated stream header: %w", io.ErrUnexpectedEOF)
		}
		return err
	}
	if [4]byte(hdr[0:4]) != streamMagic {
		return errors.New("hmerge: bad stream magic")
	}
	switch hdr[4] {
	case streamVersion:
		return nil
	case 1:
		return errVersion1
	}
	return fmt.Errorf("hmerge: unsupported stream version %d", hdr[4])
}

// loadBlock reads and decompresses the next block, with the tracefile
// reader's hardening: claimed lengths are capped, decompression is bounded
// by the claimed raw length and must hit it exactly.
func (t *Reader) loadBlock() error {
	var bh [24]byte
	if _, err := io.ReadFull(t.r, bh[:]); err != nil {
		// A clean end of stream lands exactly on a block boundary (zero
		// bytes read); a partial header is a truncated file.
		if err == io.ErrUnexpectedEOF {
			return fmt.Errorf("hmerge: truncated block header: %w", err)
		}
		return err
	}
	switch [4]byte(bh[0:4]) {
	case blockMagic:
	case blockMagicV1:
		return errVersion1
	default:
		return errors.New("hmerge: bad block magic")
	}
	compLen := binary.LittleEndian.Uint32(bh[4:8])
	rawLen := binary.LittleEndian.Uint32(bh[8:12])
	if compLen > maxBlockLen || rawLen > maxBlockLen {
		return fmt.Errorf("hmerge: block header claims %d/%d bytes", compLen, rawLen)
	}
	if cap(t.comp) < int(compLen) {
		t.comp = make([]byte, compLen)
	}
	comp := t.comp[:compLen]
	if _, err := io.ReadFull(t.r, comp); err != nil {
		return fmt.Errorf("hmerge: truncated block: %w", err)
	}
	if cap(t.raw) < int(rawLen) {
		t.raw = make([]byte, rawLen)
	}
	t.raw = t.raw[:rawLen]
	if err := lzblock.Decompress(t.raw, comp); err != nil {
		return fmt.Errorf("hmerge: decompress: %w", err)
	}
	t.pos = 0
	return nil
}

func (t *Reader) decodeRecord() (*unify.JFrame, error) {
	b := t.raw[t.pos:]
	if len(b) < recHdrLen {
		return nil, fmt.Errorf("hmerge: corrupt block: %w", io.ErrUnexpectedEOF)
	}
	hdr := b[:recHdrLen]
	flags := hdr[0]
	nWire := int(binary.LittleEndian.Uint16(hdr[6:8]))
	nInst := int(binary.LittleEndian.Uint16(hdr[8:10]))
	if len(b) < recHdrLen+nWire+nInst*instLen {
		return nil, fmt.Errorf("hmerge: corrupt block: %w", io.ErrUnexpectedEOF)
	}
	j := unify.NewJFrame()
	j.Channel = dot80211.Channel(hdr[1])
	j.Rate = dot80211.Rate(binary.LittleEndian.Uint16(hdr[2:4]))
	j.WireLen = int(binary.LittleEndian.Uint16(hdr[4:6]))
	j.UnivUS = int64(binary.LittleEndian.Uint64(hdr[10:18]))
	j.DispersionUS = int64(binary.LittleEndian.Uint64(hdr[18:26]))
	j.Valid = flags&flagValid != 0
	j.PhyOnly = flags&flagPhyOnly != 0
	// The wire bytes are copied out of the reused block buffer into the
	// frame's own storage; the decoded header below then aliases that copy,
	// never the block.
	j.SetWire(b[recHdrLen : recHdrLen+nWire])
	if j.Instances == nil {
		prealloc := nInst
		if prealloc > instPrealloc {
			prealloc = instPrealloc
		}
		j.Instances = make([]unify.Instance, 0, prealloc)
	}
	for i := 0; i < nInst; i++ {
		ib := b[recHdrLen+nWire+i*instLen:]
		j.Instances = append(j.Instances, unify.Instance{
			Radio:   int32(binary.LittleEndian.Uint32(ib[0:4])),
			LocalUS: int64(binary.LittleEndian.Uint64(ib[4:12])),
			UnivUS:  int64(binary.LittleEndian.Uint64(ib[12:20])),
			RSSIdBm: int8(ib[20]),
			FCSOK:   ib[21]&instFCSOK != 0,
			PhyErr:  ib[21]&instPhyErr != 0,
		})
	}
	t.pos += recHdrLen + nWire + nInst*instLen
	// Re-derive the decoded header exactly as the unifier does at emission:
	// partial decodes are kept (Valid already records whether the decode
	// succeeded on a FCS-valid capture), phy-only events carry no frame.
	if !j.PhyOnly {
		f, _, _ := dot80211.DecodeCapture(j.Wire)
		j.Frame = f
	}
	return j, nil
}
