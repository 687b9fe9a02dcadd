package origin

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/media"
	"repro/internal/tacc"
)

func TestFetchDeterministic(t *testing.T) {
	o := NewSimulated(1)
	ctx := context.Background()
	a, err := o.Fetch(ctx, "http://origin1.example/obj42.sjpg")
	if err != nil {
		t.Fatal(err)
	}
	b, err := o.Fetch(ctx, "http://origin1.example/obj42.sjpg")
	if err != nil {
		t.Fatal(err)
	}
	if string(a.Data) != string(b.Data) || a.MIME != b.MIME {
		t.Fatal("same URL returned different content")
	}
	if o.Fetches() != 2 {
		t.Fatalf("fetches = %d", o.Fetches())
	}
}

func TestFetchMIMEFromExtension(t *testing.T) {
	o := NewSimulated(2)
	ctx := context.Background()
	cases := map[string]string{
		"http://x/a.sgif": media.MIMESGIF,
		"http://x/a.sjpg": media.MIMESJPG,
		"http://x/a.html": media.MIMEHTML,
		"http://x/a.bin":  media.MIMEOther,
	}
	for url, want := range cases {
		blob, err := o.Fetch(ctx, url)
		if err != nil {
			t.Fatal(err)
		}
		if blob.MIME != want {
			t.Fatalf("%s -> %s, want %s", url, blob.MIME, want)
		}
		if got := media.DetectMIME(blob.Data); got != want {
			t.Fatalf("%s content sniffs as %s", url, got)
		}
	}
	// Unknown extension: sampled from the mix, still valid content.
	blob, err := o.Fetch(ctx, "http://x/mystery")
	if err != nil {
		t.Fatal(err)
	}
	if blob.Size() == 0 {
		t.Fatal("empty content")
	}
}

func TestFetchDelay(t *testing.T) {
	o := NewSimulated(3)
	o.Delay = func(rng *rand.Rand) time.Duration { return 30 * time.Millisecond }
	start := time.Now()
	if _, err := o.Fetch(context.Background(), "http://x/a.html"); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < 25*time.Millisecond {
		t.Fatal("delay not applied")
	}
}

func TestFetchDelayCancellation(t *testing.T) {
	o := NewSimulated(4)
	o.Delay = func(rng *rand.Rand) time.Duration { return time.Minute }
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := o.Fetch(ctx, "http://x/a.html"); err == nil {
		t.Fatal("expected context error")
	}
}

func TestStaticFetcher(t *testing.T) {
	s := NewStatic()
	s.Put("http://a/page", tacc.Blob{MIME: "text/html", Data: []byte("hi")})
	blob, err := s.Fetch(context.Background(), "http://a/page")
	if err != nil || string(blob.Data) != "hi" {
		t.Fatalf("fetch = %q, %v", blob.Data, err)
	}
	_, err = s.Fetch(context.Background(), "http://a/missing")
	var nf *NotFoundError
	if !errors.As(err, &nf) || nf.URL != "http://a/missing" {
		t.Fatalf("err = %v", err)
	}
}
