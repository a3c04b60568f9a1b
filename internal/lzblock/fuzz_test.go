package lzblock

import (
	"bytes"
	"testing"
)

// FuzzDecode: arbitrary input and claimed raw length must never panic and
// never touch bytes outside dst; the decoder either fills dst exactly or
// fails.
func FuzzDecode(f *testing.F) {
	valid := Compress(nil, bytes.Repeat([]byte("jigsaw frames "), 50))
	f.Add(valid, uint16(700))
	f.Add(valid, uint16(699))
	f.Add(valid[:len(valid)-1], uint16(700))
	f.Add([]byte{0x00}, uint16(0))
	f.Add([]byte{0x1f, 'a', 1, 0, 255, 255, 10, 0x00}, uint16(600))
	f.Add([]byte{0xf0, 255, 255}, uint16(1000))

	f.Fuzz(func(t *testing.T, src []byte, rawLen uint16) {
		// dst is a window into a larger buffer whose guard bytes must
		// survive whatever the decoder does.
		const guard = 64
		buf := bytes.Repeat([]byte{0xa5}, guard+int(rawLen)+guard)
		dst := buf[guard : guard+int(rawLen) : guard+int(rawLen)]
		err := Decompress(dst, src)
		for i, b := range buf {
			if (i < guard || i >= guard+int(rawLen)) && b != 0xa5 {
				t.Fatalf("decoder wrote outside dst at %d (err %v)", i-guard, err)
			}
		}
		if err != nil {
			return
		}
		// A successful decode is canonical enough to survive re-encoding.
		again := make([]byte, len(dst))
		if err := Decompress(again, Compress(nil, dst)); err != nil || !bytes.Equal(again, dst) {
			t.Fatalf("re-encoded block does not round-trip: %v", err)
		}
	})
}

// FuzzRoundTrip: every input compresses to a block that decodes back to
// exactly the input at exactly its length.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"))
	f.Add(bytes.Repeat([]byte("abcde"), 200))
	f.Add(benchBlock()[:4096])

	f.Fuzz(func(t *testing.T, raw []byte) {
		comp := Compress(nil, raw)
		got := make([]byte, len(raw))
		if err := Decompress(got, comp); err != nil {
			t.Fatalf("decompress: %v", err)
		}
		if !bytes.Equal(got, raw) {
			t.Fatal("round trip differs")
		}
		if len(raw) > 0 {
			if err := Decompress(make([]byte, len(raw)-1), comp); err == nil {
				t.Fatal("decoded into a buffer shorter than the block")
			}
		}
		if err := Decompress(make([]byte, len(raw)+1), comp); err == nil {
			t.Fatal("decoded into a buffer longer than the block")
		}
	})
}
