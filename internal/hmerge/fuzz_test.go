package hmerge

import (
	"bytes"
	"testing"
)

// FuzzIntermediateReader: arbitrary bytes through the intermediate-stream
// reader must terminate with a jframe stream or an error — never panic,
// never balloon memory off a corrupt header, and never emit an unsorted
// stream (the format's invariant is enforced on read).
func FuzzIntermediateReader(f *testing.F) {
	valid, _ := encodeStream(f, synthFrames(50, 9))
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // truncated mid-block
	f.Add(valid[:8])            // stream header only
	f.Add(valid[:20])           // truncated block header
	f.Add(append([]byte("JFS1"), 2, 0, 0, 0))
	f.Add(append([]byte("JFS1"), 1, 0, 0, 0)) // version 1 (DEFLATE)
	f.Add(bytes.Repeat([]byte{0}, 64))
	corrupt := append([]byte(nil), valid...)
	corrupt[40] ^= 0xff // damage the compressed payload
	f.Add(corrupt)
	huge := append([]byte(nil), valid...)
	huge[12], huge[13], huge[14], huge[15] = 0xff, 0xff, 0xff, 0x7f // absurd compLen
	f.Add(huge)
	rawLie := append([]byte(nil), valid...)
	rawLie[16] ^= 0x55 // claimed raw length disagrees with the LZ block body
	f.Add(rawLie)

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		var lastUS int64
		seen := false
		for i := 0; i < 1<<20; i++ {
			j, err := r.Next()
			if err != nil {
				// Errors must be sticky: the reader stays failed.
				if _, err2 := r.Next(); err2 == nil {
					t.Fatal("reader recovered after error")
				}
				return
			}
			if seen && j.UnivUS < lastUS {
				t.Fatalf("reader emitted unsorted stream: %d after %d", j.UnivUS, lastUS)
			}
			lastUS, seen = j.UnivUS, true
			if len(j.Instances) > 1<<16 {
				t.Fatalf("impossible instance count %d", len(j.Instances))
			}
		}
		t.Fatal("reader never terminated")
	})
}
