package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"repro/internal/sim"
)

// Record is one trace entry: a timestamped HTTP request from an
// (anonymized) user for an object.
type Record struct {
	T      time.Duration `json:"t"`    // offset from trace start
	URL    string        `json:"url"`  // synthetic object URL
	MIME   string        `json:"mime"` // object content type
	Size   int           `json:"size"` // content length in bytes
	User   int           `json:"user"` // anonymized user id
	Object int           `json:"obj"`  // object id within the universe
}

// Config controls trace generation.
type Config struct {
	Seed     int64
	Start    time.Duration // virtual start offset (position in the daily cycle)
	Duration time.Duration
	Users    int // population size (paper: ~8000 active users)
	Objects  int // object universe size
	ZipfS    float64
}

// DefaultConfig returns a configuration matching the paper's observed
// population at a test-friendly universe size.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:     seed,
		Start:    12 * time.Hour, // midday
		Duration: time.Hour,
		Users:    8000,
		Objects:  200000,
		ZipfS:    1.1,
	}
}

// Generate synthesizes a trace: arrival times from the burst model,
// object popularity from a Zipf law (which is what makes caching
// effective), and per-object MIME/size from the Figure 5 content
// model. Object attributes are deterministic functions of the object
// id, so repeated requests for an object agree.
func Generate(cfg Config) []Record {
	if cfg.Users <= 0 {
		cfg.Users = 8000
	}
	if cfg.Objects <= 1 {
		cfg.Objects = 200000
	}
	if cfg.ZipfS <= 1 {
		cfg.ZipfS = 1.1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	times := DefaultArrivals(cfg.Seed).Generate(rng, cfg.Start, cfg.Start+cfg.Duration)
	zipf := sim.Zipf(rng, cfg.ZipfS, cfg.Objects)
	model := NewContentModel()

	out := make([]Record, 0, len(times))
	for _, t := range times {
		obj := zipf()
		mime, size := ObjectAttrs(cfg.Seed, obj, model)
		out = append(out, Record{
			T:      t - cfg.Start,
			URL:    ObjectURL(obj, mime),
			MIME:   mime,
			Size:   size,
			User:   rng.Intn(cfg.Users),
			Object: obj,
		})
	}
	return out
}

// ObjectAttrs returns the deterministic MIME and size for an object id
// under the given trace seed.
func ObjectAttrs(seed int64, obj int, model *ContentModel) (string, int) {
	r := rand.New(rand.NewSource(seed ^ int64(obj)*0x9e3779b9 + 0x1234))
	return model.Sample(r)
}

// ObjectURL renders the synthetic URL for an object.
func ObjectURL(obj int, mime string) string {
	ext := "bin"
	switch mime {
	case "image/sgif":
		ext = "sgif"
	case "image/sjpg":
		ext = "sjpg"
	case "text/html":
		ext = "html"
	}
	return fmt.Sprintf("http://origin%d.example/obj%d.%s", obj%50, obj, ext)
}

// Write streams records as JSON lines.
func Write(w io.Writer, records []Record) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range records {
		if err := enc.Encode(&records[i]); err != nil {
			return fmt.Errorf("trace: write record %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// Read parses JSON-lines records.
func Read(r io.Reader) ([]Record, error) {
	var out []Record
	dec := json.NewDecoder(bufio.NewReader(r))
	for {
		var rec Record
		if err := dec.Decode(&rec); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("trace: read record %d: %w", len(out), err)
		}
		out = append(out, rec)
	}
}

// WriteFile writes a trace file.
func WriteFile(path string, records []Record) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, records); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile reads a trace file.
func ReadFile(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}
