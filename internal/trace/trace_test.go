package trace

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/media"
	"repro/internal/sim"
)

func TestSizeModelMeans(t *testing.T) {
	// Figure 5 calibration: sampled means must track the paper's.
	cases := []struct {
		model *SizeModel
		want  float64
	}{
		{GIFSizes(), MeanGIF},
		{HTMLSizes(), MeanHTML},
		{JPEGSizes(), MeanJPEG},
	}
	rng := rand.New(rand.NewSource(1))
	for _, c := range cases {
		var w sim.Welford
		for i := 0; i < 300000; i++ {
			w.Add(float64(c.model.Sample(rng)))
		}
		if math.Abs(w.Mean()-c.want)/c.want > 0.12 {
			t.Errorf("%s mean = %.0f, want ~%.0f", c.model.MIME, w.Mean(), c.want)
		}
	}
}

func TestGIFBimodal(t *testing.T) {
	// The 1 KB threshold must split icons from photos: a healthy
	// mass on each side (paper: "two plateaus").
	rng := rand.New(rand.NewSource(2))
	m := GIFSizes()
	below, above := 0, 0
	for i := 0; i < 50000; i++ {
		if m.Sample(rng) < 1024 {
			below++
		} else {
			above++
		}
	}
	fb := float64(below) / 50000
	if fb < 0.30 || fb > 0.70 {
		t.Fatalf("GIF mass below 1KB = %.2f, want bimodal split near 0.5", fb)
	}
}

func TestJPEGFallsOffBelow1KB(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := JPEGSizes()
	below := 0
	for i := 0; i < 50000; i++ {
		if m.Sample(rng) < 1024 {
			below++
		}
	}
	if frac := float64(below) / 50000; frac > 0.12 {
		t.Fatalf("JPEG mass below 1KB = %.2f, want < 0.12", frac)
	}
}

func TestContentModelMix(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := NewContentModel()
	counts := map[string]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		mime, size := m.Sample(rng)
		counts[mime]++
		if size < 64 {
			t.Fatalf("size %d below floor", size)
		}
	}
	check := func(mime string, want float64) {
		got := float64(counts[mime]) / n
		if math.Abs(got-want) > 0.02 {
			t.Errorf("%s fraction = %.3f, want %.2f", mime, got, want)
		}
	}
	check(media.MIMESGIF, FracGIF)
	check(media.MIMEHTML, FracHTML)
	check(media.MIMESJPG, FracJPEG)
	check(media.MIMEOther, FracOther)
}

func TestArrivalMeanRate(t *testing.T) {
	m := DefaultArrivals(5)
	rng := rand.New(rand.NewSource(5))
	times := m.Generate(rng, 0, 24*time.Hour)
	got := float64(len(times)) / (24 * 3600)
	if math.Abs(got-m.MeanRate)/m.MeanRate > 0.15 {
		t.Fatalf("24h mean rate = %.2f req/s, want ~%.1f", got, m.MeanRate)
	}
}

func TestArrivalBurstinessAcrossScales(t *testing.T) {
	// Figure 6's qualitative claim: peak/avg grows as buckets
	// shrink, and short windows still show multi-x bursts.
	m := DefaultArrivals(6)
	rng := rand.New(rand.NewSource(6))
	times := m.Generate(rng, 0, 24*time.Hour)

	c24 := Bucketize(times, 0, 24*time.Hour, 2*time.Minute)
	avg24, peak24 := BucketStats(c24, 2*time.Minute)
	if peak24/avg24 < 1.5 {
		t.Fatalf("24h peak/avg = %.2f, want bursty (>1.5)", peak24/avg24)
	}

	c1s := Bucketize(times, 12*time.Hour, 12*time.Hour+200*time.Second, time.Second)
	_, peak1s := BucketStats(c1s, time.Second)
	if peak1s < avg24*1.5 {
		t.Fatalf("1s-bucket peak %.1f not bursty vs daily avg %.1f", peak1s, avg24)
	}
}

func TestDailyCycleShape(t *testing.T) {
	m := DefaultArrivals(7)
	night := m.daily(4 * time.Hour)
	evening := m.daily(16 * time.Hour)
	if night >= evening {
		t.Fatalf("daily(4h)=%.2f >= daily(16h)=%.2f; trough should be at night", night, evening)
	}
	// Mean multiplier over the day ~1.
	sum := 0.0
	for h := 0; h < 24; h++ {
		sum += m.daily(time.Duration(h) * time.Hour)
	}
	if math.Abs(sum/24-1) > 0.05 {
		t.Fatalf("daily mean multiplier = %.3f, want ~1", sum/24)
	}
}

func TestCascadeMeanOne(t *testing.T) {
	m := DefaultArrivals(8)
	sum := 0.0
	const n = 20000
	for i := 0; i < n; i++ {
		sum += m.cascade(time.Duration(i) * 4 * time.Second)
	}
	if mean := sum / n; math.Abs(mean-1) > 0.25 {
		t.Fatalf("cascade mean = %.3f, want ~1", mean)
	}
	// Bias 0.5 disables bursts entirely.
	flat := *m
	flat.CascadeBias = 0.5
	if flat.cascade(time.Hour) != 1 {
		t.Fatal("bias 0.5 should yield multiplier 1")
	}
}

// TestGenerateTraceDeterministic: what a workload is generated from —
// arrival times and each object's attributes — is a function of the
// seed alone.
func TestGenerateTraceDeterministic(t *testing.T) {
	arrivals := func() []time.Duration {
		return DefaultArrivals(9).Generate(rand.New(rand.NewSource(9)), 12*time.Hour, 12*time.Hour+2*time.Minute)
	}
	a, b := arrivals(), arrivals()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("lens = %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrivals diverge at %d", i)
		}
	}
	for obj := range 100 {
		m1, s1 := ObjectAttrs(9, obj, NewContentModel())
		m2, s2 := ObjectAttrs(9, obj, NewContentModel())
		if m1 != m2 || s1 != s2 {
			t.Fatalf("object %d: %s/%d then %s/%d", obj, m1, s1, m2, s2)
		}
	}
}

func TestObjectAttrsStable(t *testing.T) {
	m := NewContentModel()
	mime1, size1 := ObjectAttrs(1, 42, m)
	mime2, size2 := ObjectAttrs(1, 42, m)
	if mime1 != mime2 || size1 != size2 {
		t.Fatal("object attributes not deterministic")
	}
	url := ObjectURL(42, mime1)
	if url == "" {
		t.Fatal("empty URL")
	}
}

func TestTraceRepeatsObjects(t *testing.T) {
	// Zipf popularity must produce repeated objects — the property
	// caching depends on.
	rng := rand.New(rand.NewSource(10))
	n := len(DefaultArrivals(10).Generate(rng, 12*time.Hour, 12*time.Hour+10*time.Minute))
	zipf := sim.Zipf(rng, 1.1, 5000)
	seen := map[int]int{}
	for range n {
		seen[zipf()]++
	}
	if len(seen) >= n {
		t.Fatalf("no repeats: %d unique of %d", len(seen), n)
	}
}

func TestBucketizeEdges(t *testing.T) {
	times := []time.Duration{0, time.Second, 2*time.Second - 1, 5 * time.Second}
	counts := Bucketize(times, 0, 4*time.Second, time.Second)
	if len(counts) != 4 || counts[0] != 1 || counts[1] != 2 || counts[2] != 0 {
		t.Fatalf("counts = %v", counts)
	}
	if Bucketize(times, 0, 0, time.Second) != nil {
		t.Fatal("empty range should return nil")
	}
}
