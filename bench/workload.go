package main

import (
	"context"
	"fmt"
	"hash/maphash"
	"math"
	"math/rand"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/media"
	"repro/internal/sim"
	"repro/internal/tacc"
	"repro/internal/trace"
)

// Profile variants a request's user can carry. The variant, not the
// user name, decides the pipeline, so it keys the expected-body table.
const (
	variantDefault  = iota // no profile: the stock TranSend pipeline
	variantKeywords        // keywords set: HTML also runs filter-keyword
	variantOff             // transend=off: everything passes through
)

// User names per variant; set on the front-end side in set-up.
var (
	defaultUsers = []string{"u0", "u1", "u2", "u3", "u4", "u5"}
	keywordsUser = "kw"
	offUser      = "off"
	profileSets  = [][3]string{
		{keywordsUser, "keywords", "cluster,cache"},
		{offUser, "transend", "off"},
	}
)

// request is one generated input: everything the load generator and
// the checker need, fixed before the clock starts.
type request struct {
	path    string        // what the client sends: /fetch?user=..&url=..
	url     string        // the origin URL inside it
	user    string        // the user inside it
	body    int           // index of the original in workload.bodies
	variant int           // the user's profile variant
	due     time.Duration // open loop: offset from the interval's start
}

// workload is one traffic shape. Nothing in internal/ ever sees its
// name: the program receives HTTP requests and origin fetches only.
type workload struct {
	name        string
	open        bool    // open loop (Poisson at ratePerS) vs closed loop
	clients     int     // closed-loop clients
	ratePerS    float64 // open-loop arrival rate
	cacheBudget int64   // bytes per cache partition; 0 = the shipped default

	// expect is the set of X-TranSend-Source values a correct answer may
	// carry; anything else counts as a failed request.
	expect map[string]bool

	bodies   []tacc.Blob // the origin's pre-generated originals
	bodyHash []uint64    // maphash of each original (passthrough check)

	warm []request // sent once each during set-up, before any timing
	// warmClients is the set-up concurrency: enough to keep every worker
	// busy, so pre-filling the cache is bound by distiller CPU and not by
	// round trips — but few enough that the bodies in flight stay under
	// the bridge's 1 MiB write-queue bound, or the front ends shed.
	warmClients int
	reqs        []request // the measured stream, in send order
	// fresh builds request i with a never-seen URL; set only where
	// the workload depends on every URL being new.
	fresh func(i int) request

	// echoReq/echoReply size the bench-owned echo calls like the
	// workload's dominant SAN message (request body, reply body);
	// taskShaped says that message is the worker task/result pair
	// rather than a cache reply.
	echoReq, echoReply int
	taskShaped         bool

	// The isolation proof: what must hold for a run to have measured
	// what the workload exists to measure (checked by delta.gates).
	primary      string     // the source nearly every answer must carry
	primaryShare float64    // ... and the least share of answers carrying it
	idleWorkers  bool       // workers must complete no task
	chunked      bool       // every response body must be chunk-relayed
	evicting     bool       // the cache must be evicting throughout
	hitRate      [2]float64 // bounds on the request-level hit rate, when set
}

// at returns request i of the measured stream. Past the pre-generated
// part a cyclic workload wraps; a fresh-URL workload keeps minting.
func (w *workload) at(i int) request {
	if i < len(w.reqs) {
		return w.reqs[i]
	}
	if w.fresh != nil {
		return w.fresh(i)
	}
	return w.reqs[i%len(w.reqs)]
}

var hashSeed = maphash.MakeSeed()

// bodySum is the checker's body hash. maphash rather than FNV-64: at
// 256 KB per response a byte-at-a-time FNV would cost the generator a
// quarter of a millisecond per request; sums are only ever compared
// within one process, so the per-process seed is fine.
func bodySum(b []byte) uint64 { return maphash.Bytes(hashSeed, b) }

var extOf = map[string]string{
	media.MIMESJPG:  "sjpg",
	media.MIMESGIF:  "sgif",
	media.MIMEHTML:  "html",
	media.MIMEOther: "bin",
}

// mkRequest renders request number n of a tag for one original. The
// body index rides in the URL (/b<idx>/) so the origin needs no table.
func (w *workload) mkRequest(tag string, n, body int, user string, variant int) request {
	u := "http://o" + strconv.Itoa(n%50) + ".example/b" + strconv.Itoa(body) + "/" + tag +
		strconv.Itoa(n) + "." + extOf[w.bodies[body].MIME]
	return request{
		path:    "/fetch?user=" + user + "&url=" + url.QueryEscape(u),
		url:     u,
		user:    user,
		body:    body,
		variant: variant,
	}
}

func (w *workload) addBody(mime string, data []byte) {
	w.bodies = append(w.bodies, tacc.Blob{MIME: mime, Data: data})
	w.bodyHash = append(w.bodyHash, bodySum(data))
}

// image encodes a seeded side×side picture. Dimensions are fixed by
// the workload and only the pixels come from the seed, so distiller
// cost (which follows pixel count) does not move with the seed.
func image(rng *rand.Rand, mime string, side int) []byte {
	im := media.Generate(rng, side, side)
	if mime == media.MIMESGIF {
		return media.EncodeSGIF(im, 64)
	}
	return media.EncodeSJPG(im, 75)
}

// sideFor is the picture side whose encoding lands near bytes: both
// codecs spend about 0.6 bytes per pixel on generated content.
func sideFor(bytes int) int {
	s := int(math.Sqrt(float64(bytes) / 0.6))
	if s < 8 {
		s = 8
	}
	return s
}

// content renders one original of roughly the given size.
func content(rng *rand.Rand, mime string, bytes int) []byte {
	switch mime {
	case media.MIMESJPG, media.MIMESGIF:
		return image(rng, mime, sideFor(bytes))
	case media.MIMEHTML:
		return media.GenerateHTML(rng, bytes, nil)
	default:
		buf := make([]byte, bytes)
		rng.Read(buf)
		return buf
	}
}

// poolOrigin is the bench-owned origin.Fetcher: it serves the
// workload's pre-generated originals with zero delay, so origin time
// (the paper's 100 ms–100 s miss penalty) stays out of every number.
type poolOrigin struct{ bodies []tacc.Blob }

func (o *poolOrigin) Fetch(_ context.Context, u string) (tacc.Blob, error) {
	const mark = ".example/b"
	if i := strings.Index(u, mark); i >= 0 {
		rest := u[i+len(mark):]
		if j := strings.IndexByte(rest, '/'); j > 0 {
			if idx, err := strconv.Atoi(rest[:j]); err == nil && idx < len(o.bodies) {
				return o.bodies[idx], nil
			}
		}
	}
	return tacc.Blob{}, fmt.Errorf("bench origin: no body index in %q", u)
}

var workloadNames = []string{"hit_small", "miss_distill", "blob_large", "mixed_zipf"}

// Generator sizing. A closed-loop stream is pre-generated to closedStream
// requests and then wraps (or keeps minting fresh URLs); the open-loop
// stream is as long as its interval plus a reserve for the traced run.
const (
	closedClients  = 2
	closedStream   = 1 << 14
	tracedReserve  = 6000
	mixedRatePerS  = 500 // see README for how the rate was chosen
	mixedObjects   = 20000
	mixedZipfS     = 1.1
	mixedWarm      = 2500 // set-up requests; evictions begin well before
	mixedBudget    = 512 << 10
	mixedUniverse  = 0x5eed // object attributes are fixed, not seeded
	ladderSteps    = 8
	missBudget     = 4 << 20
	blobBytes      = 256 << 10
	hitSmallURLs   = 256
	missOriginals  = 64
	blobLargeURLs  = 32
	sourceHit      = "cache-distilled"
	sourceDistill  = "distilled"
	sourceOriginal = "original"
)

// newWorkload generates a workload's inputs from the seed: bodies,
// URL stream, users and arrival times. The same seed gives the same
// inputs.
func newWorkload(name string, seed int64, seconds float64) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	const n = closedStream
	w := &workload{name: name, clients: closedClients, warmClients: 16}
	switch name {
	case "hit_small":
		// ~4 KB originals of all three distillable types.
		w.expect = map[string]bool{sourceHit: true}
		w.primary, w.primaryShare, w.idleWorkers = sourceHit, 1, true
		for i := 0; i < 8; i++ {
			w.addBody(media.MIMESJPG, image(rng, media.MIMESJPG, 76+2*i))
			w.addBody(media.MIMESGIF, image(rng, media.MIMESGIF, 76+2*i))
			w.addBody(media.MIMEHTML, media.GenerateHTML(rng, 3600+150*i, nil))
		}
		for i := 0; i < hitSmallURLs; i++ {
			w.warm = append(w.warm, w.mkRequest("h", i, i%len(w.bodies), defaultUsers[0], variantDefault))
		}
		for i := 0; i < n; i++ {
			w.reqs = append(w.reqs, w.warm[rng.Intn(len(w.warm))])
		}
		w.echoReq, w.echoReply = 96, 1536

	case "miss_distill":
		// 8–32 KB originals, 50/30/20 sjpg/sgif/html, on a fixed size
		// ladder; a cache small enough that eviction is steady state.
		w.expect = map[string]bool{sourceDistill: true}
		w.primary, w.primaryShare, w.evicting = sourceDistill, 0.99, true
		w.cacheBudget = missBudget
		for i := 0; i < missOriginals; i++ {
			bytes := 8<<10 + (24<<10)*i/(missOriginals-1)
			mime := media.MIMESJPG
			switch {
			case i%10 >= 8:
				mime = media.MIMEHTML
			case i%10 >= 5:
				mime = media.MIMESGIF
			}
			w.addBody(mime, content(rng, mime, bytes))
		}
		// Each cycle of 64 visits every original once, in a seeded
		// order, so every window sees the same size and type mix.
		order := rng.Perm(missOriginals)
		w.fresh = func(i int) request {
			return w.mkRequest("m", i, order[i%missOriginals], defaultUsers[0], variantDefault)
		}
		// Set-up runs the same traffic until both partitions evict.
		for i := 0; i < 2*int(missBudget)/(20<<10)+2*missOriginals; i++ {
			w.warm = append(w.warm, w.mkRequest("w", i, order[i%missOriginals], defaultUsers[0], variantDefault))
		}
		for i := 0; i < n; i++ {
			w.reqs = append(w.reqs, w.fresh(i))
		}
		w.echoReq, w.echoReply, w.taskShaped = 20<<10, 5<<10, true

	case "blob_large":
		// One size only, so the median never sits between two modes.
		w.expect = map[string]bool{sourceOriginal: true}
		w.primary, w.primaryShare, w.idleWorkers, w.chunked = sourceOriginal, 1, true, true
		w.warmClients = 2
		for i := 0; i < blobLargeURLs; i++ {
			w.addBody(media.MIMEOther, content(rng, media.MIMEOther, blobBytes))
			w.warm = append(w.warm, w.mkRequest("l", i, i, defaultUsers[0], variantDefault))
		}
		for i := 0; i < n; i++ {
			w.reqs = append(w.reqs, w.warm[rng.Intn(len(w.warm))])
		}
		w.echoReq, w.echoReply = 96, blobBytes

	case "mixed_zipf":
		w.open = true
		w.ratePerS = mixedRatePerS
		w.cacheBudget = mixedBudget
		w.expect = map[string]bool{sourceHit: true, sourceDistill: true, sourceOriginal: true}
		w.hitRate = [2]float64{0.45, 0.60}
		w.mixed(rng, seconds)
		w.echoReq, w.echoReply = 96, 4<<10

	default:
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
	}
	return w, nil
}

// mixed builds the paper's own traffic shape: Zipf popularity over a
// fixed object universe with the Fig. 5 MIME/size mix, eight users of
// three profile variants, Poisson arrivals.
//
// Object attributes come from trace.ObjectAttrs under a constant
// universe seed, and sizes snap to a per-type ladder of octile
// midpoints: the seed moves the request stream and the pixels, never
// which objects are popular or how large they are — otherwise the
// handful of objects at the head of the Zipf curve would make bytes
// per second swing by tens of percent from seed to seed.
func (w *workload) mixed(rng *rand.Rand, seconds float64) {
	model := trace.NewContentModel()
	mimes := []string{media.MIMESGIF, media.MIMEHTML, media.MIMESJPG, media.MIMEOther}
	edges := make(map[string][]int, len(mimes))
	first := make(map[string]int, len(mimes))
	ladderRNG := rand.New(rand.NewSource(mixedUniverse))
	for _, mime := range mimes {
		const draws = 4096
		sizes := make([]int, draws)
		for i := range sizes {
			sizes[i] = model.SampleMIME(ladderRNG, mime)
		}
		sort.Ints(sizes)
		first[mime] = len(w.bodies)
		for s := 0; s < ladderSteps; s++ {
			edges[mime] = append(edges[mime], sizes[(s+1)*draws/ladderSteps-1])
			w.addBody(mime, content(rng, mime, sizes[(2*s+1)*draws/(2*ladderSteps)]))
		}
	}
	bodyOf := func(obj int) int {
		mime, size := trace.ObjectAttrs(mixedUniverse, obj, model)
		step := sort.SearchInts(edges[mime], size)
		if step >= ladderSteps {
			step = ladderSteps - 1
		}
		return first[mime] + step
	}

	zipf := sim.Zipf(rng, mixedZipfS, mixedObjects)
	draw := func() request {
		obj := zipf()
		user, variant := defaultUsers[rng.Intn(len(defaultUsers))], variantDefault
		switch rng.Intn(8) {
		case 6:
			user, variant = keywordsUser, variantKeywords
		case 7:
			user, variant = offUser, variantOff
		}
		return w.mkRequest("z", obj, bodyOf(obj), user, variant)
	}
	for i := 0; i < mixedWarm; i++ {
		w.warm = append(w.warm, draw())
	}
	due := 0.0
	for i := 0; i < int(seconds*w.ratePerS)+tracedReserve; i++ {
		due += sim.Exp(rng, 1/w.ratePerS)
		r := draw()
		r.due = time.Duration(due * float64(time.Second))
		w.reqs = append(w.reqs, r)
	}
}
