package stub

import (
	"bytes"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden/*.hex from the current encoder")

// TestGoldenFrames pins the wire layout of every kind to bytes committed
// under testdata/golden: each fixture is the encoding of that kind's
// wireSamples() body as of the last deliberate layout change. A frame a
// peer built from those bytes must still decode to the same value and
// re-encode to the same bytes, so a field added, dropped, reordered or
// retyped fails here first and the fixture is regenerated on purpose
// (go test ./internal/stub -run TestGoldenFrames -update), with the
// diff of a .hex file in the PR saying which kind changed. A fixture
// for a kind the codec no longer speaks fails too: a deleted kind's
// frame is removed with it, on purpose.
func TestGoldenFrames(t *testing.T) {
	fixtures, err := filepath.Glob(filepath.Join("testdata", "golden", "*.hex"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range fixtures {
		if kind := strings.TrimSuffix(filepath.Base(path), ".hex"); !slices.Contains(WireKinds(), kind) {
			t.Errorf("%s: a golden frame for %q, which is not a wire kind", path, kind)
		}
	}
	for kind, body := range wireSamples() {
		path := filepath.Join("testdata", "golden", kind+".hex")
		if *updateGolden {
			data, err := EncodeBody(kind, body)
			if err != nil {
				t.Fatalf("%s: encode: %v", kind, err)
			}
			if err := os.WriteFile(path, []byte(hex.EncodeToString(data)+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		text, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("%s: no golden frame (run with -update): %v", kind, err)
			continue
		}
		golden, err := hex.DecodeString(strings.TrimSpace(string(text)))
		if err != nil {
			t.Errorf("%s: %s is not hex: %v", kind, path, err)
			continue
		}
		got, err := decode(kind, golden)
		if err != nil {
			t.Errorf("%s: the committed frame no longer decodes: %v", kind, err)
			continue
		}
		if !reflect.DeepEqual(got, body) {
			t.Errorf("%s: the committed frame decodes to\n %#v\nwant %#v", kind, got, body)
		}
		if again, err := EncodeBody(kind, got); err != nil || !bytes.Equal(again, golden) {
			t.Errorf("%s: decode -> re-encode changed the bytes (%v):\n got %x\nwant %x", kind, err, again, golden)
		}
	}
}
