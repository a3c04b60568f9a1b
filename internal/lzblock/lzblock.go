// Package lzblock is the block codec of the repo's two block formats (the
// tracefile capture format and hmerge's .jfs intermediate streams). Like
// the LZO jigdump used (§3.3), it trades compression ratio for speed: an
// LZ4-style greedy matcher over 4-byte hashes with 16-bit back-references,
// sized for blocks of about 64 KB.
//
// A compressed block is a sequence of sequences. Each starts with a token
// byte: the high nibble is the literal count and the low nibble the match
// length minus 4; a nibble of 15 continues in following bytes, each added
// to it, until one is not 255. The literals follow, then (except in the
// final sequence) a little-endian uint16 back-reference offset and the
// match-length continuation bytes. The final sequence carries literals
// only and ends the input, so every block, even an empty one, ends with a
// literal run. The raw length travels in the container's block header, not
// in the block.
package lzblock

import (
	"encoding/binary"
	"errors"
	"math/bits"
	"sync"
)

const (
	minMatch  = 4
	maxOffset = 1<<16 - 1
	hashLog   = 14
	// skipLog sets how fast the matcher strides over bytes it cannot
	// match: after every 1<<skipLog misses since the last match the step
	// grows by one, so incompressible input costs little to skip.
	skipLog = 6
)

// table maps a hash of 4 input bytes to the position after which they
// last occurred (position+1, so the zero value means empty).
type table [1 << hashLog]int32

// tables pools compressor hash tables: writers flush one block at a time,
// and keeping a table per writer would pin it across every open writer.
var tables = sync.Pool{New: func() any { return new(table) }}

func hash(u uint32) uint32 { return (u * 2654435761) >> (32 - hashLog) }

// Compress appends the compressed form of src to dst and returns the
// extended slice.
func Compress(dst, src []byte) []byte {
	t := tables.Get().(*table)
	defer tables.Put(t)
	clear(t[:])

	anchor := 0 // start of the pending literal run
	for i := 0; i+minMatch <= len(src); {
		seq := binary.LittleEndian.Uint32(src[i:])
		h := hash(seq)
		cand := int(t[h]) - 1
		t[h] = int32(i + 1)
		if cand < 0 || i-cand > maxOffset || binary.LittleEndian.Uint32(src[cand:]) != seq {
			i += 1 + (i-anchor)>>skipLog
			continue
		}
		// Extend the match backwards into the pending literals, then
		// forwards as far as it goes.
		for cand > 0 && i > anchor && src[cand-1] == src[i-1] {
			cand--
			i--
		}
		n := minMatch + matchLen(src[cand+minMatch:], src[i+minMatch:])
		dst = appendSequence(dst, src[anchor:i], i-cand, n)
		i += n
		anchor = i
	}
	return appendSequence(dst, src[anchor:], 0, 0)
}

// matchLen is the length of the common prefix of a and b: two suffixes of
// one block, a starting first, so a is never the shorter.
func matchLen(a, b []byte) int {
	n := 0
	for len(b)-n >= 8 {
		if x := binary.LittleEndian.Uint64(a[n:]) ^ binary.LittleEndian.Uint64(b[n:]); x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
		n += 8
	}
	for n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// appendSequence emits one sequence: lits, then a match of length n at
// offset off. n == 0 marks the final, literal-only sequence.
func appendSequence(dst, lits []byte, off, n int) []byte {
	tok := byte(min(len(lits), 15) << 4)
	if n > 0 {
		tok |= byte(min(n-minMatch, 15))
	}
	dst = append(dst, tok)
	if len(lits) >= 15 {
		dst = appendLength(dst, len(lits)-15)
	}
	dst = append(dst, lits...)
	if n == 0 {
		return dst
	}
	dst = append(dst, byte(off), byte(off>>8))
	if n-minMatch >= 15 {
		dst = appendLength(dst, n-minMatch-15)
	}
	return dst
}

// appendLength emits a nibble continuation: 255s, then the remainder.
func appendLength(dst []byte, n int) []byte {
	for ; n >= 255; n -= 255 {
		dst = append(dst, 255)
	}
	return append(dst, byte(n))
}

// Decode errors. Every malformed input yields one of them; none lets the
// decoder read or write outside its buffers.
var (
	errTruncated = errors.New("lzblock: input ends before the block is complete")
	errOverrun   = errors.New("lzblock: sequence runs past the end of the block")
	errOffset    = errors.New("lzblock: invalid match offset")
	errTrailing  = errors.New("lzblock: trailing input after the final literal run")
)

// Decompress decodes src into dst, which must be exactly the block's raw
// length: it succeeds only if src fills dst completely and ends with the
// final literal run.
func Decompress(dst, src []byte) error {
	d, s := 0, 0
	for {
		if s >= len(src) {
			return errTruncated
		}
		tok := int(src[s])
		s++
		lit := tok >> 4
		if lit == 15 {
			var ok bool
			if lit, s, ok = readLength(src, s, lit); !ok {
				return errTruncated
			}
		}
		if lit > len(src)-s {
			return errTruncated
		}
		if lit > len(dst)-d {
			return errOverrun
		}
		if lit <= 16 && len(src)-s >= 16 && len(dst)-d >= 16 {
			// Short run with headroom in both buffers: one fixed 16-byte
			// move. Bytes past the run are rewritten by what follows.
			*(*[16]byte)(dst[d:]) = *(*[16]byte)(src[s:])
		} else {
			copy(dst[d:], src[s:s+lit])
		}
		d += lit
		s += lit
		if s == len(src) {
			if d != len(dst) {
				return errTruncated
			}
			return nil
		}
		if d == len(dst) {
			return errTrailing
		}
		if len(src)-s < 2 {
			return errTruncated
		}
		off := int(src[s]) | int(src[s+1])<<8
		s += 2
		if off == 0 || off > d {
			return errOffset
		}
		n := tok & 15
		if n == 15 {
			var ok bool
			if n, s, ok = readLength(src, s, n); !ok {
				return errTruncated
			}
		}
		n += minMatch
		if n > len(dst)-d {
			return errOverrun
		}
		if off >= n && n <= 16 && len(dst)-d >= 16 {
			*(*[16]byte)(dst[d:]) = *(*[16]byte)(dst[d-off:])
		} else if off >= n {
			copy(dst[d:d+n], dst[d-off:])
		} else {
			// Overlapping match: the source is the pattern being written,
			// so copy what exists and double it until the match is done.
			for i := 0; i < n; {
				i += copy(dst[d+i:d+n], dst[d-off:d+i])
			}
		}
		d += n
	}
}

// readLength adds a nibble continuation starting at src[s] to n. It fails
// if src ends first.
func readLength(src []byte, s, n int) (int, int, bool) {
	for {
		if s >= len(src) {
			return 0, 0, false
		}
		b := src[s]
		s++
		n += int(b)
		if b != 255 {
			return n, s, true
		}
	}
}
