package distiller

import (
	"bytes"
	"math/rand"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/media"
	"repro/internal/tacc"
)

// The image distillers' paths, told apart by their bytes. "Today's
// bytes" are the media primitives composed the long way — decode at
// full size, blur, box-filter, encode — each of which internal/media's
// tests hold bit for bit to the code it replaced.

func longWay(t *testing.T, d ImageDistiller, in []byte, blur, scale, level int) []byte {
	t.Helper()
	var im *media.Image
	var err error
	if d.class == ClassSGIF {
		im, err = media.DecodeSGIF(in)
	} else {
		im, err = media.DecodeSJPG(in)
	}
	if err != nil {
		t.Fatal(err)
	}
	if blur > 0 {
		im = im.BoxBlur(blur)
	}
	return d.encode(im.Downscale(scale), level)
}

func TestFullPathGivesTodaysBytes(t *testing.T) {
	for _, d := range []ImageDistiller{SGIFDistiller, SJPGDistiller} {
		in := sjpgBlob(t, 10*1024)
		if d.class == ClassSGIF {
			in = sgifBlob(t, 10*1024)
		}
		for _, c := range []struct {
			scale  string // the profile's value, "" for none
			blur   int
			factor int // what ParamInt makes of scale
		}{
			{"3", 0, 3}, {"5", 0, 5}, {"16", 0, 16}, {"1000", 0, 1000}, // no tile of that size
			{"2", 2, 2}, {"4", 1, 4}, {"", 2, 2}, {"5", 3, 5}, // a blur needs the full raster
			{"0", 0, 0}, {"-1", 0, -1}, {"1", 0, 1}, // factors that do not scale
			{"junk", 0, 2}, {"2", 0, 2}, {"8", 0, 8}, // the default and the tiles: SGIF only
		} {
			if d.class == ClassSJPG && c.blur == 0 && (c.factor == 2 || c.factor == 4 || c.factor == 8) {
				continue // the reduced path: TestSJPGReducedPathMatchesFullPath
			}
			profile := map[string]string{"blur": strconv.Itoa(c.blur)}
			if c.scale != "" {
				profile["scale"] = c.scale
			}
			out, err := d.Process(ctx, &tacc.Task{Input: in, Profile: profile})
			if err != nil {
				t.Fatal(err)
			}
			if want := longWay(t, d, in.Data, c.blur, c.factor, d.levelDefault); !bytes.Equal(out.Data, want) {
				t.Errorf("%s scale=%q blur=%d: %d bytes, not the %d the full path gives", d.class, c.scale, c.blur, len(out.Data), len(want))
			}
		}
	}
}

func TestSJPGReducedPathMatchesFullPath(t *testing.T) {
	in := sjpgBlob(t, 20*1024)
	for _, scale := range []string{"2", "4", "8"} {
		out, err := SJPGDistiller.Process(ctx, &tacc.Task{Input: in, Profile: map[string]string{"scale": scale}})
		if err != nil {
			t.Fatal(err)
		}
		want := longWay(t, SJPGDistiller, in.Data, 0, int(scale[0]-'0'), 25)
		got, err := media.DecodeSJPG(out.Data)
		if err != nil {
			t.Fatal(err)
		}
		ref, _ := media.DecodeSJPG(want)
		if got.W != ref.W || got.H != ref.H {
			t.Fatalf("scale %s: %dx%d, full path %dx%d", scale, got.W, got.H, ref.W, ref.H)
		}
		if diff := len(out.Data) - len(want); diff > len(want)/100+16 || -diff > len(want)/100+16 {
			t.Errorf("scale %s: %d bytes, full path %d", scale, len(out.Data), len(want))
		}
	}
}

// A profile value must not buy CPU: the factor and the radius come from
// the user, the cost must come from the image. Before the filters were
// bounded scale=1000000 was 10¹² loop turns for one output pixel.
func TestJunkProfileCostsNothing(t *testing.T) {
	for _, d := range []ImageDistiller{SGIFDistiller, SJPGDistiller} {
		in := sjpgBlob(t, 20*1024)
		if d.class == ClassSGIF {
			in = sgifBlob(t, 20*1024)
		}
		for _, profile := range []map[string]string{
			{"scale": "1073741824"},
			{"blur": "1073741824"},
			{"scale": "1073741824", "blur": "1073741824"},
			{"scale": "1000000", "blur": "37"},
		} {
			start := time.Now()
			out, err := d.Process(ctx, &tacc.Task{Input: in, Profile: profile})
			if err != nil {
				t.Fatal(err)
			}
			if took := time.Since(start); took > 50*time.Millisecond {
				t.Errorf("%s %v: took %v", d.class, profile, took)
			}
			if _, err := d.decode(out.Data, 1); err != nil {
				t.Errorf("%s %v: output does not decode: %v", d.class, profile, err)
			}
		}
	}
}

// The benchmark's checker compares every answer with the first one it
// saw for the same request, whichever worker produced it.
func TestDistillersAreDeterministic(t *testing.T) {
	page := media.GenerateHTML(rand.New(rand.NewSource(8)), 20<<10, nil)
	for _, c := range []struct {
		w  tacc.Worker
		in tacc.Blob
	}{
		{SJPGDistiller, sjpgBlob(t, 20*1024)},
		{SGIFDistiller, sgifBlob(t, 20*1024)},
		{HTMLMunger{}, tacc.Blob{MIME: media.MIMEHTML, Data: page}},
	} {
		first, err := c.w.Process(ctx, &tacc.Task{Input: c.in})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 100; i++ {
					out, err := c.w.Process(ctx, &tacc.Task{Input: c.in})
					if err != nil || !bytes.Equal(out.Data, first.Data) {
						t.Errorf("%s: call %d differs from the first (err %v)", c.w.Class(), i, err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}
