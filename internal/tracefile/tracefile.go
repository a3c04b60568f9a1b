// Package tracefile implements the jigdump-style per-radio trace format:
// the stream of physical-layer event records each monitor radio produces,
// serialized in compressed blocks with a separate metadata index
// (§3.3: jigdump reads 64 KB at a time, compresses with LZO — we use the
// LZ-family block codec in internal/lzblock, which makes the same trade of
// ratio for speed — and writes data and metadata index separately,
// rotating files hourly).
package tracefile

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/lzblock"
)

// Record flags.
const (
	FlagFCSOK  uint8 = 1 << 0 // frame passed its FCS
	FlagPhyErr uint8 = 1 << 1 // physical error event: energy, no frame
)

// Record is one captured physical-layer event at one radio: a valid frame,
// a corrupted frame, or a physical error. Timestamps are the radio's local
// 1 µs clock — synchronization to universal time is Jigsaw's job, not the
// capture format's.
//
// Ownership: a Record returned by Reader.Next (or any Source-backed
// stream) BORROWS its Frame bytes from the reader's block buffer — they
// are valid only until the next call on the same reader. Consumers that
// hold a record across calls must copy the frame (see CloneFrame); the
// unifier copies at intake, so everything downstream of it is governed by
// the JFrame retain/release contract instead.
type Record struct {
	LocalUS int64  // local receive timestamp, microseconds
	RadioID int32  // capturing radio
	Channel uint8  // tuned channel
	RSSIdBm int8   // received signal strength
	Rate    uint16 // coded rate in 100 kbps units (dot80211.Rate)
	Flags   uint8
	// OrigLen is the frame's true on-air byte length before snap
	// truncation (like a radiotap/pcap original-length field); airtime
	// computations must use it, not len(Frame).
	OrigLen uint16
	Frame   []byte // captured wire bytes (nil for phy errors), snap-limited
}

// FCSOK reports whether the record's frame passed its checksum.
func (r *Record) FCSOK() bool { return r.Flags&FlagFCSOK != 0 }

// IsPhyErr reports whether the record is a physical error event.
func (r *Record) IsPhyErr() bool { return r.Flags&FlagPhyErr != 0 }

// CloneFrame replaces a borrowed Frame with an owned copy, so the record
// stays valid past the reader call that produced it.
func (r *Record) CloneFrame() {
	if r.Frame != nil {
		r.Frame = append([]byte(nil), r.Frame...)
	}
}

// DefaultSnapLen bounds captured frame bytes: MAC header plus up to 200
// payload bytes, like the paper's captures (§5).
const DefaultSnapLen = 228

// blockTarget is the uncompressed block size at which the writer flushes,
// mirroring jigdump's 64 KB reads.
const blockTarget = 64 * 1024

// magic identifies trace blocks and index files. Its last byte is the
// format version: version 2 compresses blocks with lzblock.
var magic = [4]byte{'J', 'I', 'G', '2'}

// magicV1 marks the DEFLATE-compressed version 1 of the format, which this
// reader no longer decodes; it is recognized only to name it in the error.
var magicV1 = [4]byte{'J', 'I', 'G', '1'}

// errVersion1 reports a trace or index file written in version 1 of the
// format, whose blocks are DEFLATE-compressed.
var errVersion1 = errors.New("tracefile: version-1 (DEFLATE) trace: this build reads only version-2 (LZ) traces")

// checkMagic validates a block or index magic.
func checkMagic(m [4]byte, what string) error {
	switch m {
	case magic:
		return nil
	case magicV1:
		return errVersion1
	}
	return fmt.Errorf("tracefile: bad %s magic", what)
}

// IndexEntry describes one compressed block for the metadata index.
type IndexEntry struct {
	Offset       int64 // byte offset of the block in the data stream
	CompLen      int32
	RawLen       int32
	Records      int32
	FirstLocalUS int64
	LastLocalUS  int64
}

// Writer serializes records into compressed blocks. It is not safe for
// concurrent use; the capture path is single-threaded per radio.
type Writer struct {
	w       io.Writer
	offset  int64
	buf     bytes.Buffer // uncompressed pending records
	comp    []byte       // reused compressed-block scratch
	count   int32
	firstUS int64
	lastUS  int64
	index   []IndexEntry
	snapLen int
	closed  bool
}

// NewWriter creates a trace writer with the default snap length.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w, snapLen: DefaultSnapLen}
}

// SetSnapLen overrides the per-frame capture byte limit (0 = unlimited).
func (w *Writer) SetSnapLen(n int) { w.snapLen = n }

// WriteRecord appends one record, flushing a block when the target size is
// reached.
func (w *Writer) WriteRecord(r Record) error {
	if w.closed {
		return errors.New("tracefile: writer closed")
	}
	frame := r.Frame
	if r.OrigLen == 0 {
		r.OrigLen = uint16(len(frame))
	}
	if w.snapLen > 0 && len(frame) > w.snapLen {
		frame = frame[:w.snapLen]
	}
	if w.count == 0 {
		w.firstUS = r.LocalUS
	}
	w.lastUS = r.LocalUS
	var hdr [20]byte
	binary.LittleEndian.PutUint64(hdr[0:8], uint64(r.LocalUS))
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(r.RadioID))
	hdr[12] = r.Channel
	hdr[13] = uint8(r.RSSIdBm)
	binary.LittleEndian.PutUint16(hdr[14:16], r.Rate)
	hdr[16] = r.Flags
	hdr[17] = 0
	binary.LittleEndian.PutUint16(hdr[18:20], r.OrigLen)
	w.buf.Write(hdr[:])
	var l [2]byte
	binary.LittleEndian.PutUint16(l[:], uint16(len(frame)))
	w.buf.Write(l[:])
	w.buf.Write(frame)
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
	copy(bh[0:4], magic[:])
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
	w.index = append(w.index, IndexEntry{
		Offset:  w.offset,
		CompLen: int32(len(w.comp)), RawLen: int32(w.buf.Len()),
		Records: w.count, FirstLocalUS: w.firstUS, LastLocalUS: w.lastUS,
	})
	w.offset += int64(len(bh)) + int64(len(w.comp))
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

// Index returns the metadata index built during writing (valid after
// Close). Callers persist it with WriteIndex for the paired metadata file.
func (w *Writer) Index() []IndexEntry { return w.index }

// WriteIndex serializes a metadata index to out.
func WriteIndex(out io.Writer, idx []IndexEntry) error {
	bw := bufio.NewWriter(out)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(idx)))
	bw.Write(n[:])
	for _, e := range idx {
		var b [36]byte
		binary.LittleEndian.PutUint64(b[0:8], uint64(e.Offset))
		binary.LittleEndian.PutUint32(b[8:12], uint32(e.CompLen))
		binary.LittleEndian.PutUint32(b[12:16], uint32(e.RawLen))
		binary.LittleEndian.PutUint32(b[16:20], uint32(e.Records))
		binary.LittleEndian.PutUint64(b[20:28], uint64(e.FirstLocalUS))
		binary.LittleEndian.PutUint64(b[28:36], uint64(e.LastLocalUS))
		bw.Write(b[:])
	}
	return bw.Flush()
}

// ReadIndex parses a metadata index.
func ReadIndex(in io.Reader) ([]IndexEntry, error) {
	var m [4]byte
	if _, err := io.ReadFull(in, m[:]); err != nil {
		return nil, err
	}
	if err := checkMagic(m, "index"); err != nil {
		return nil, err
	}
	var n [4]byte
	if _, err := io.ReadFull(in, n[:]); err != nil {
		return nil, err
	}
	count := binary.LittleEndian.Uint32(n[:])
	// Entries arrive 36 bytes each; cap the preallocation so a corrupt
	// count field cannot demand gigabytes before the first read fails.
	prealloc := count
	if prealloc > 1<<16 {
		prealloc = 1 << 16
	}
	idx := make([]IndexEntry, 0, prealloc)
	for i := uint32(0); i < count; i++ {
		var b [36]byte
		if _, err := io.ReadFull(in, b[:]); err != nil {
			return nil, err
		}
		idx = append(idx, IndexEntry{
			Offset:       int64(binary.LittleEndian.Uint64(b[0:8])),
			CompLen:      int32(binary.LittleEndian.Uint32(b[8:12])),
			RawLen:       int32(binary.LittleEndian.Uint32(b[12:16])),
			Records:      int32(binary.LittleEndian.Uint32(b[16:20])),
			FirstLocalUS: int64(binary.LittleEndian.Uint64(b[20:28])),
			LastLocalUS:  int64(binary.LittleEndian.Uint64(b[28:36])),
		})
	}
	return idx, nil
}

// BlockSlicer is implemented by trace inputs that can expose the next n
// bytes of the stream as a zero-copy view (memory-mapped files, in-memory
// buffers). The returned slice stays valid until the input is closed.
// Reader uses it to decompress blocks straight out of the backing bytes
// instead of staging them through a copy.
type BlockSlicer interface {
	Slice(n int) ([]byte, error)
}

// Reader iterates records from a trace stream. Records are parsed in
// place: each returned Record's Frame aliases the reader's decompressed
// block buffer and is only valid until the next call (see Record).
type Reader struct {
	r    io.Reader
	sl   BlockSlicer // non-nil when r supports zero-copy block reads
	comp []byte      // reused compressed-block staging (copying path)
	raw  []byte      // reused decompressed block
	pos  int         // parse cursor into raw
	err  error
}

// NewReader wraps a trace stream for record iteration.
func NewReader(r io.Reader) *Reader {
	t := &Reader{r: r}
	t.sl, _ = r.(BlockSlicer)
	return t
}

// recHdrLen is the per-record header (20 bytes) plus the 2-byte frame
// length.
const recHdrLen = 22

// Next returns the next record. io.EOF signals a clean end of trace. The
// record's Frame is borrowed (valid until the next Next call).
func (t *Reader) Next() (Record, error) {
	var rec Record
	if t.err != nil {
		return rec, t.err
	}
	for t.pos >= len(t.raw) {
		if err := t.loadBlock(); err != nil {
			t.err = err
			return rec, err
		}
	}
	b := t.raw[t.pos:]
	if len(b) < recHdrLen {
		t.err = errors.New("tracefile: corrupt block: truncated record header")
		return rec, t.err
	}
	rec.LocalUS = int64(binary.LittleEndian.Uint64(b[0:8]))
	rec.RadioID = int32(binary.LittleEndian.Uint32(b[8:12]))
	rec.Channel = b[12]
	rec.RSSIdBm = int8(b[13])
	rec.Rate = binary.LittleEndian.Uint16(b[14:16])
	rec.Flags = b[16]
	rec.OrigLen = binary.LittleEndian.Uint16(b[18:20])
	n := int(binary.LittleEndian.Uint16(b[20:22]))
	if len(b) < recHdrLen+n {
		t.err = errors.New("tracefile: corrupt block: truncated frame")
		return rec, t.err
	}
	if n > 0 {
		rec.Frame = b[recHdrLen : recHdrLen+n : recHdrLen+n]
	}
	t.pos += recHdrLen + n
	return rec, nil
}

// maxBlockLen bounds the compressed and uncompressed size a block header
// may claim. Legitimate blocks flush around blockTarget (64 KB) plus one
// record; anything near this cap is a corrupt or hostile header, and
// honoring it would turn a 24-byte header into a multi-gigabyte
// allocation.
const maxBlockLen = 1 << 26

// loadBlock reads and decompresses the next block into the reused raw
// buffer. Compressed bytes are sliced straight out of BlockSlicer-backed
// inputs; other inputs stage them through a reused buffer.
func (t *Reader) loadBlock() error {
	var bh [24]byte
	if _, err := io.ReadFull(t.r, bh[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return io.EOF
		}
		return err
	}
	if err := checkMagic([4]byte(bh[0:4]), "block"); err != nil {
		return err
	}
	compLen := binary.LittleEndian.Uint32(bh[4:8])
	rawLen := binary.LittleEndian.Uint32(bh[8:12])
	if compLen > maxBlockLen || rawLen > maxBlockLen {
		return fmt.Errorf("tracefile: block header claims %d/%d bytes", compLen, rawLen)
	}
	var comp []byte
	if t.sl != nil {
		b, err := t.sl.Slice(int(compLen))
		if err != nil {
			return fmt.Errorf("tracefile: truncated block: %w", err)
		}
		comp = b
	} else {
		if cap(t.comp) < int(compLen) {
			t.comp = make([]byte, compLen)
		}
		t.comp = t.comp[:compLen]
		if _, err := io.ReadFull(t.r, t.comp); err != nil {
			return fmt.Errorf("tracefile: truncated block: %w", err)
		}
		comp = t.comp
	}
	if cap(t.raw) < int(rawLen) {
		t.raw = make([]byte, rawLen)
	}
	t.raw = t.raw[:rawLen]
	t.pos = 0
	// The payload must decode to exactly the header's rawLen: the decoder
	// writes only into raw and fails on a block that is short, long or
	// followed by trailing bytes.
	if err := lzblock.Decompress(t.raw, comp); err != nil {
		return fmt.Errorf("tracefile: decompress: %w", err)
	}
	return nil
}

// ReadAll drains a reader into a slice, copying each borrowed frame into
// owned storage (the slice outlives the reader's block buffer).
func ReadAll(r io.Reader) ([]Record, error) {
	tr := NewReader(r)
	var recs []Record
	for {
		rec, err := tr.Next()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return recs, err
		}
		rec.CloneFrame()
		recs = append(recs, rec)
	}
}

// WriteAll serializes records to w and returns the index.
func WriteAll(w io.Writer, recs []Record) ([]IndexEntry, error) {
	tw := NewWriter(w)
	for _, r := range recs {
		if err := tw.WriteRecord(r); err != nil {
			return nil, err
		}
	}
	if err := tw.Close(); err != nil {
		return nil, err
	}
	return tw.Index(), nil
}
