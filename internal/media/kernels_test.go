package media

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// The kernels against the code they replaced (reference_test.go).

// testShapes are the sides the benchmark's size mix produces plus the
// awkward ones: not multiples of 8, not square, smaller than a block,
// smaller than a sample window.
var testShapes = [][2]int{
	{9, 9}, {76, 76}, {116, 116}, {185, 185}, {231, 231}, {260, 260},
	{37, 19}, {100, 41}, {300, 10}, {8, 8}, {16, 24}, {7, 9}, {3, 50}, {1, 1},
}

func absDiff(a, b *Image) (mean float64, worst int) {
	for i := range a.Pix {
		worst = max(worst, int(a.Pix[i])-int(b.Pix[i]), int(b.Pix[i])-int(a.Pix[i]))
	}
	return MeanAbsDiff(a, b), worst
}

// blockStream is a one-block 8×8 SJPG stream carrying coefs.
func blockStream(quality int, coefs []int64) []byte {
	buf := append([]byte(nil), sjpgMagic...)
	buf = binary.AppendUvarint(buf, 8)
	buf = binary.AppendUvarint(buf, 8)
	buf = binary.AppendUvarint(buf, uint64(quality))
	buf = append(buf, byte(len(coefs)))
	for _, c := range coefs {
		buf = binary.AppendVarint(buf, c)
	}
	return buf
}

func TestDecodeBitIdenticalOnRandomBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for i := 0; i < 20000; i++ {
		n := rng.Intn(65)
		if i%3 == 0 { // the sparse blocks real images are made of
			n = rng.Intn(12)
		}
		coefs := make([]int64, n)
		// Magnitudes from "barely visible" to far past clipping.
		span := int64(1) << uint(1+rng.Intn(10))
		for j := range coefs {
			if rng.Intn(4) > 0 { // zeros inside the carried prefix too
				coefs[j] = rng.Int63n(2*span+1) - span
			}
		}
		data := blockStream(1+rng.Intn(100), coefs)
		want, err := refDecodeSJPG(data)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeSJPG(data)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Pix, want.Pix) {
			t.Fatalf("block %d (n=%d, coefs %v): pixels differ from the dense transform's", i, n, coefs)
		}
	}
}

func TestCodecsByteIdenticalOnImages(t *testing.T) {
	for _, shape := range testShapes {
		im := Generate(rand.New(rand.NewSource(int64(shape[0]*1000+shape[1]))), shape[0], shape[1])
		for _, q := range []int{1, 25, 75, 95, 100} {
			data := EncodeSJPG(im, q)
			if !bytes.Equal(data, refEncodeSJPG(im, q)) {
				t.Fatalf("EncodeSJPG %v q%d: bytes differ from the reference", shape, q)
			}
			want, _ := refDecodeSJPG(data)
			got, err := DecodeSJPG(data)
			if err != nil {
				t.Fatal(err)
			}
			if got.W != want.W || got.H != want.H || !bytes.Equal(got.Pix, want.Pix) {
				t.Fatalf("DecodeSJPG %v q%d: pixels differ from the reference", shape, q)
			}
		}
		for _, colors := range []int{2, 16, 64, 256} {
			data := EncodeSGIF(im, colors)
			if !bytes.Equal(data, refEncodeSGIF(im, colors)) {
				t.Fatalf("EncodeSGIF %v c%d: bytes differ from the reference", shape, colors)
			}
			want, _ := refDecodeSGIF(data)
			got, err := DecodeSGIF(data)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Pix, want.Pix) {
				t.Fatalf("DecodeSGIF %v c%d: pixels differ from the reference", shape, colors)
			}
		}
	}
}

func TestFiltersByteIdentical(t *testing.T) {
	for _, shape := range testShapes {
		im := Generate(rand.New(rand.NewSource(int64(shape[0]+shape[1]))), shape[0], shape[1])
		for _, f := range []int{-1, 0, 1, 2, 3, 4, 7, 8, 50, 1000} {
			got, want := im.Downscale(f), refDownscale(im, f)
			if got.W != want.W || got.H != want.H || !bytes.Equal(got.Pix, want.Pix) {
				t.Fatalf("Downscale(%d) of %v differs from the reference", f, shape)
			}
		}
		for _, r := range []int{-1, 0, 1, 2, 3, 5, 12, 40} {
			got, want := im.BoxBlur(r), refBoxBlur(im, r)
			if !bytes.Equal(got.Pix, want.Pix) {
				t.Fatalf("BoxBlur(%d) of %v differs from the reference", r, shape)
			}
		}
	}
}

// TestDecodeReducedMatchesDownscale holds the fused path to the issue's
// criteria against decode-then-Downscale: the two differ only by
// rounding (the reference truncates to a byte twice, the tile once,
// half a level lower to stand in for the first).
func TestDecodeReducedMatchesDownscale(t *testing.T) {
	for _, shape := range testShapes {
		im := Generate(rand.New(rand.NewSource(int64(7*shape[0]+shape[1]))), shape[0], shape[1])
		for _, q := range []int{25, 75, 95} {
			data := EncodeSJPG(im, q)
			full, err := refDecodeSJPG(data)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range []int{2, 3, 4, 8} {
				name := fmt.Sprintf("%dx%d q%d /%d", shape[0], shape[1], q, d)
				want := refDownscale(full, d)
				got, err := DecodeSJPG(data, d)
				if err != nil {
					t.Fatal(name, err)
				}
				if got.W != want.W || got.H != want.H {
					t.Fatalf("%s: %dx%d, want %dx%d", name, got.W, got.H, want.W, want.H)
				}
				mean, worst := absDiff(got, want)
				if mean > 0.6 || worst > 2 {
					t.Errorf("%s: mean abs diff %.3f (limit 0.6), max %d (limit 2)", name, mean, worst)
				}
				a, b := len(EncodeSJPG(got, 25)), len(EncodeSJPG(want, 25))
				// ±1 % where the workloads' thumbnails are (1-3 KB); a few
				// flipped coefficients are more than that of a 200-byte one.
				if diff, limit := a-b, max(b/100, 16); diff > limit || -diff > limit {
					t.Errorf("%s: re-encodes to %d bytes, reference %d", name, a, b)
				}
				if d == 3 && !bytes.Equal(got.Pix, want.Pix) {
					t.Errorf("%s: a denominator with no tile must be today's bytes", name)
				}
			}
		}
	}
}

func TestDecodersRefuseOversizedHeaders(t *testing.T) {
	header := func(magic []byte, w, h, third uint64) []byte {
		buf := append([]byte(nil), magic...)
		buf = binary.AppendUvarint(buf, w)
		buf = binary.AppendUvarint(buf, h)
		return binary.AppendUvarint(buf, third)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, dims := range [][2]uint64{{16384, 16384}, {1 << 32, 1 << 32}, {1 << 25, 1}, {4097, 4096}} {
		if _, err := DecodeSJPG(append(header(sjpgMagic, dims[0], dims[1], 75), 0, 0, 0)); err == nil {
			t.Fatalf("SJPG header claiming %dx%d accepted", dims[0], dims[1])
		}
		if _, err := DecodeSGIF(append(header(sgifMagic, dims[0], dims[1], 2), 0, 255, 1, 0)); err == nil {
			t.Fatalf("SGIF header claiming %dx%d accepted", dims[0], dims[1])
		}
	}
	// Inside the cap but with more blocks than bytes: 4096² is 262,144
	// blocks, the body below holds three.
	if _, err := DecodeSJPG(append(header(sjpgMagic, 4096, 4096, 75), 0, 0, 0)); err == nil {
		t.Fatal("SJPG header claiming more blocks than bytes accepted")
	}
	// A run longer than an int must not wrap the bounds check.
	huge := binary.AppendUvarint(append(header(sgifMagic, 4, 4, 2), 0, 255), 1<<63+5)
	if _, err := DecodeSGIF(append(huge, 0)); err == nil {
		t.Fatal("SGIF run of 2^63+5 pixels accepted")
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("refusing the headers allocated %d bytes", grew)
	}
}

// fuzzSeeds are valid streams of the odd shapes, as the fuzz corpus.
func fuzzSeeds(encode func(*Image) []byte) [][]byte {
	var seeds [][]byte
	for _, shape := range [][2]int{{1, 1}, {7, 9}, {185, 188}, {64, 64}} {
		seeds = append(seeds, encode(Generate(rand.New(rand.NewSource(1)), shape[0], shape[1])))
	}
	flat := NewImage(24, 16) // every block DC-only; after the level shift of 128, empty
	for i := range flat.Pix {
		flat.Pix[i] = 128
	}
	noisy := NewImage(24, 16) // every block carries all 64 coefficients
	rand.New(rand.NewSource(2)).Read(noisy.Pix)
	return append(seeds, encode(flat), encode(noisy))
}

func FuzzDecodeSJPG(f *testing.F) {
	for _, seed := range fuzzSeeds(func(im *Image) []byte { return EncodeSJPG(im, 100) }) {
		f.Add(seed)
	}
	f.Add(blockStream(75, nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		full, err := DecodeSJPG(data)
		if err != nil {
			return
		}
		if len(full.Pix) != full.W*full.H || len(full.Pix) > maxPixels {
			t.Fatalf("decoded %dx%d with %d pixels", full.W, full.H, len(full.Pix))
		}
		// Where no pixel sits on a clipping bound the two roundings are
		// all that separates the paths; a clipped block is clipped before
		// the average by one and after it by the other.
		clipped := bytes.IndexByte(full.Pix, 0) >= 0 || bytes.IndexByte(full.Pix, 255) >= 0
		for _, d := range []int{2, 4, 8} {
			got, err := DecodeSJPG(data, d)
			if err != nil {
				t.Fatalf("decodes at 1 but not at %d: %v", d, err)
			}
			want := full.Downscale(d)
			if got.W != want.W || got.H != want.H {
				t.Fatalf("/%d: %dx%d, want %dx%d", d, got.W, got.H, want.W, want.H)
			}
			if _, worst := absDiff(got, want); !clipped && worst > 2 {
				t.Fatalf("/%d: differs from decode-then-Downscale by %d gray levels", d, worst)
			}
		}
	})
}

func FuzzDecodeSGIF(f *testing.F) {
	for _, seed := range fuzzSeeds(func(im *Image) []byte { return EncodeSGIF(im, 64) }) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		im, err := DecodeSGIF(data)
		if err != nil {
			return
		}
		if len(im.Pix) != im.W*im.H || len(im.Pix) > maxPixels {
			t.Fatalf("decoded %dx%d with %d pixels", im.W, im.H, len(im.Pix))
		}
	})
}
