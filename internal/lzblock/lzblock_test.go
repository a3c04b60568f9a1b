package lzblock

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

func roundTrip(t *testing.T, raw []byte) []byte {
	t.Helper()
	comp := Compress(nil, raw)
	got := make([]byte, len(raw))
	if err := Decompress(got, comp); err != nil {
		t.Fatalf("decompress %d bytes: %v", len(raw), err)
	}
	if !bytes.Equal(got, raw) {
		t.Fatalf("round trip of %d bytes differs", len(raw))
	}
	return comp
}

func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	random := make([]byte, 64<<10)
	rng.Read(random)
	// Records-like input: a repeated header shape with varying fields.
	var records []byte
	for i := 0; len(records) < 64<<10; i++ {
		records = append(records, byte(i), byte(i>>8), 0, 0, 7, 0, 0, 0, 1, 6, 0xce, 110)
		records = append(records, random[i%512:i%512+rng.Intn(40)]...)
	}
	cases := map[string]struct {
		raw     []byte
		maxComp int // upper bound on the compressed size
	}{
		"empty":          {nil, 1},
		"one byte":       {[]byte{42}, 2},
		"short":          {[]byte("abc"), 4},
		"incompressible": {random, len(random) + len(random)/255 + 16},
		"zeros 64K":      {make([]byte, 64<<10), 300},
		"records":        {records, len(records) / 2},
		// A period shorter than the minimum match: every match overlaps
		// its own output (offset < length).
		"overlap period 1": {bytes.Repeat([]byte{7}, 1000), 16},
		"overlap period 3": {bytes.Repeat([]byte("abc"), 1000), 32},
		// 15 + 255 + k literals and matches exercise the continuation
		// bytes' boundaries: a length of exactly 15, a 255 run and the
		// 255-then-0 encoding.
		"literals 15":  {random[:15], 17},
		"literals 270": {random[:270], 274},
		"literals 525": {random[:525], 530},
		"match 19":     {append(append([]byte{}, random[:19]...), random[:19]...), 64},
		"match 274":    {append(append([]byte{}, random[:274]...), random[:274]...), 300},
		"match 529":    {append(append([]byte{}, random[:529]...), random[:529]...), 560},
	}
	for name, c := range cases {
		comp := roundTrip(t, c.raw)
		if len(comp) > c.maxComp {
			t.Errorf("%s: %d bytes compress to %d, want <= %d", name, len(c.raw), len(comp), c.maxComp)
		}
	}
}

// TestFarMatch: a match whose source sits just within the 16-bit offset
// range is taken; one beyond it is not, and still round-trips.
func TestFarMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, gap := range []int{maxOffset - 64, maxOffset, maxOffset + 1, 100 << 10} {
		raw := make([]byte, gap+64)
		rng.Read(raw)
		copy(raw[gap:], raw[:64])
		roundTrip(t, raw)
	}
}

func TestCompressAppends(t *testing.T) {
	raw := bytes.Repeat([]byte("jigsaw"), 100)
	prefix := []byte("hdr")
	comp := Compress(append([]byte{}, prefix...), raw)
	if !bytes.HasPrefix(comp, prefix) {
		t.Fatal("Compress overwrote dst's existing bytes")
	}
	got := make([]byte, len(raw))
	if err := Decompress(got, comp[len(prefix):]); err != nil || !bytes.Equal(got, raw) {
		t.Fatalf("appended block does not decode: %v", err)
	}
}

func TestDecompressRejects(t *testing.T) {
	valid := Compress(nil, bytes.Repeat([]byte("abcdefgh"), 40))
	cases := []struct {
		name   string
		src    []byte
		rawLen int
		want   error
	}{
		{"empty input", nil, 0, errTruncated},
		{"empty input, nonzero length", nil, 4, errTruncated},
		{"literals short of rawLen", []byte{0x30, 'a', 'b', 'c'}, 4, errTruncated},
		{"literal past input", []byte{0x40, 'a', 'b', 'c'}, 4, errTruncated},
		{"literal past output", []byte{0x30, 'a', 'b', 'c'}, 2, errOverrun},
		{"zero offset", []byte{0x10, 'a', 0, 0, 0x00}, 5, errOffset},
		{"offset before output start", []byte{0x10, 'a', 2, 0, 0x00}, 5, errOffset},
		{"match past output", []byte{0x10, 'a', 1, 0, 0x00}, 3, errOverrun},
		{"truncated offset", []byte{0x10, 'a', 1}, 5, errTruncated},
		{"truncated literal length", []byte{0xf0, 255}, 300, errTruncated},
		{"truncated match length", []byte{0x1f, 'a', 1, 0, 255}, 300, errTruncated},
		{"no final literal run", []byte{0x10, 'a', 1, 0}, 5, errTruncated},
		{"trailing input", append(append([]byte{}, valid...), 0), 320, errTrailing},
		{"trailing after fill", []byte{0x10, 'a', 0x00}, 1, errTrailing},
		{"short rawLen", valid, 319, errOverrun},
		{"long rawLen", valid, 321, errTruncated},
	}
	for _, c := range cases {
		err := Decompress(make([]byte, c.rawLen), c.src)
		if !errors.Is(err, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, err, c.want)
		}
	}
}

func TestCompressAllocs(t *testing.T) {
	raw := bytes.Repeat([]byte("0123456789abcdef"), 4096)
	dst := Compress(nil, raw)
	out := make([]byte, len(raw))
	if n := testing.AllocsPerRun(20, func() {
		dst = Compress(dst[:0], raw)
		if err := Decompress(out, dst); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("steady-state Compress+Decompress allocates %.1f times per block", n)
	}
}

func BenchmarkCompress(b *testing.B) {
	raw := benchBlock()
	var dst []byte
	b.SetBytes(int64(len(raw)))
	for b.Loop() {
		dst = Compress(dst[:0], raw)
	}
	b.ReportMetric(float64(len(raw))/float64(len(dst)), "ratio")
}

func BenchmarkDecompress(b *testing.B) {
	raw := benchBlock()
	comp := Compress(nil, raw)
	out := make([]byte, len(raw))
	b.SetBytes(int64(len(raw)))
	for b.Loop() {
		if err := Decompress(out, comp); err != nil {
			b.Fatal(err)
		}
	}
}

// benchBlock is a 64 KB block shaped like capture records: a fixed-layout
// header with slowly varying fields, then a partly repeated frame body.
func benchBlock() []byte {
	rng := rand.New(rand.NewSource(3))
	bodies := make([]byte, 4096)
	rng.Read(bodies)
	var raw []byte
	us := 1000
	for len(raw) < 64<<10 {
		us += rng.Intn(400)
		n := 24 + rng.Intn(80)
		raw = append(raw, byte(us), byte(us>>8), byte(us>>16), 0, 0, 0, 0, 0,
			17, 0, 0, 0, 6, byte(0xc0+rng.Intn(30)), 110, 0, 1, 0, byte(n), 0, byte(n), 0)
		off := rng.Intn(8) * 128
		raw = append(raw, bodies[off:off+n]...)
	}
	return raw
}
