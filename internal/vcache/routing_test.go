package vcache

// Routing by object: what Client.owner promises now that a URL's
// original and its variants must share a partition — co-location for
// every key shape the front end builds, no worse balance than hashing
// whole keys gave, and the ring's remap-only-the-lost-arc property seen
// through owner.

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/san"
	"repro/internal/tacc"
)

// routingClient is a client over n partitions that are never called:
// owner only reads the membership.
func routingClient(n int) *Client {
	c := NewClient(nil)
	for i := 0; i < n; i++ {
		name := "cache" + strconv.Itoa(i)
		c.AddNode(name, san.Addr{Node: "cnode" + strconv.Itoa(i), Proc: name})
	}
	return c
}

var (
	routingPipelines = []tacc.Pipeline{
		nil,
		{{Class: "distill-sjpg"}},
		{{Class: "distill-html", Params: map[string]string{"scale": "2", "q": "10"}}, {Class: "filter-keyword"}},
	}
	routingProfiles = []map[string]string{
		nil,
		{"quality": "10"},
		{"keywords": "cluster,cache", "transend": "on"},
	}
)

// randomURL draws a URL-ish string; roughly one in four carries a '|',
// a '#', or a literal "orig|" prefix — the bytes the routing rule cuts
// and strips on.
func randomURL(rng *rand.Rand) string {
	u := fmt.Sprintf("http://o%d.example/b%d/x%d.sjpg", rng.Intn(50), rng.Intn(64), rng.Int63())
	switch rng.Intn(12) {
	case 0:
		u += "?a=1|b=2"
	case 1:
		u += "#frag"
	case 2:
		u = "orig|" + u
	case 3:
		u = "orig|orig|" + u + "|x#y"
	}
	return u
}

func TestOwnerColocatesOriginalAndVariants(t *testing.T) {
	c := routingClient(5)
	rng := rand.New(rand.NewSource(25))
	for i := 0; i < 4000; i++ {
		u := randomURL(rng)
		want, ok := c.owner("orig|" + u)
		if !ok {
			t.Fatalf("no owner for the original of %q", u)
		}
		for _, p := range routingPipelines {
			for _, prof := range routingProfiles {
				key := p.CacheKey(u, prof)
				if got, _ := c.owner(key); got != want {
					t.Fatalf("URL %q: original on %v, variant %q on %v", u, want, key, got)
				}
			}
		}
	}
}

// TestOwnerBalance: over the benchmark's three URL populations (256
// warm URLs, a 20,000-object universe, every URL new) no partition owns
// more than 1.25x its fair share, at 2 and at 5 partitions — plus two
// standard deviations of a fair draw, which only matters where the fair
// share is 51 URLs (256 over 5: the ring's widest arc is 1.16x, the
// draw makes it 65 URLs, 1.27x). Whole-key hashing gave the same shares:
// they are the ring's arcs, not the keys'. The URL shape is
// bench/workload.go's mkRequest.
func TestOwnerBalance(t *testing.T) {
	exts := []string{"sjpg", "sgif", "html", "bin"}
	benchURL := func(tag string, n, body int) string {
		return "http://o" + strconv.Itoa(n%50) + ".example/b" + strconv.Itoa(body) + "/" + tag + strconv.Itoa(n) + "." + exts[body%len(exts)]
	}
	sets := []struct {
		name, tag    string
		urls, bodies int
	}{
		{"hit_small's 256", "h", 256, 24},
		{"mixed_zipf's 20000", "z", 20000, 32},
		{"miss_distill's fresh", "m", 16384, 64},
	}
	for _, parts := range []int{2, 5} {
		c := routingClient(parts)
		for _, set := range sets {
			owned := map[san.Addr]int{}
			for i := 0; i < set.urls; i++ {
				addr, _ := c.owner(routingPipelines[1].CacheKey(benchURL(set.tag, i, i%set.bodies), nil))
				owned[addr]++
			}
			fair := float64(set.urls) / float64(parts)
			for addr, n := range owned {
				if float64(n) > 1.25*fair+2*math.Sqrt(fair) {
					t.Errorf("%s over %d partitions: %v owns %d URLs, %.2fx its fair share", set.name, parts, addr, n, float64(n)/fair)
				}
			}
		}
	}
}

// TestOwnerRemapsOnlyTheLostArc is TestRingMonotoneRemapping through
// owner: removing a partition moves the keys it owned and no others,
// and a URL's two keys move together.
func TestOwnerRemapsOnlyTheLostArc(t *testing.T) {
	c := routingClient(4)
	lost, _ := c.owner("orig|pick-the-victim")
	rng := rand.New(rand.NewSource(4))
	type pair struct{ orig, variant string }
	before := map[pair]san.Addr{}
	for i := 0; i < 5000; i++ {
		u := randomURL(rng)
		k := pair{"orig|" + u, routingPipelines[1].CacheKey(u, routingProfiles[1])}
		before[k], _ = c.owner(k.orig)
	}
	for name, addr := range c.addrs {
		if addr == lost {
			c.RemoveNode(name)
			break
		}
	}
	for k, was := range before {
		now, ok := c.owner(k.orig)
		if v, _ := c.owner(k.variant); !ok || v != now {
			t.Fatalf("%q on %v but %q on %v after the removal", k.orig, now, k.variant, v)
		}
		if was != lost && now != was {
			t.Fatalf("%q moved %v -> %v though %v survived", k.orig, was, now, was)
		}
		if was == lost && now == lost {
			t.Fatalf("%q still on the removed partition", k.orig)
		}
	}
}
