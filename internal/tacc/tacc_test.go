package tacc

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func upper() Worker {
	return WorkerFunc{Name: "upper", Fn: func(ctx context.Context, t *Task) (Blob, error) {
		return Blob{MIME: t.Input.MIME, Data: []byte(strings.ToUpper(string(t.Input.Data)))}, nil
	}}
}

func suffix() Worker {
	return WorkerFunc{Name: "suffix", Fn: func(ctx context.Context, t *Task) (Blob, error) {
		s := t.Param("suffix", "!")
		return Blob{MIME: t.Input.MIME, Data: append(append([]byte{}, t.Input.Data...), s...)}, nil
	}}
}

func failing() Worker {
	return WorkerFunc{Name: "failing", Fn: func(ctx context.Context, t *Task) (Blob, error) {
		return Blob{}, errors.New("pathological input")
	}}
}

func concat() Worker {
	return WorkerFunc{Name: "concat", Fn: func(ctx context.Context, t *Task) (Blob, error) {
		var b []byte
		for _, in := range t.Inputs {
			b = append(b, in.Data...)
		}
		return Blob{MIME: "text/plain", Data: b}, nil
	}}
}

func newTestRegistry() *Registry {
	r := NewRegistry()
	r.Register("upper", upper)
	r.Register("suffix", suffix)
	r.Register("failing", failing)
	r.Register("concat", concat)
	return r
}

func TestPipelineChaining(t *testing.T) {
	r := newTestRegistry()
	out, err := r.Run(context.Background(),
		Pipeline{{Class: "upper"}, {Class: "suffix", Params: map[string]string{"suffix": "?"}}},
		&Task{Input: Blob{MIME: "text/plain", Data: []byte("hello")}})
	if err != nil {
		t.Fatal(err)
	}
	if string(out.Data) != "HELLO?" {
		t.Fatalf("out = %q", out.Data)
	}
}

func TestPipelineOrderMatters(t *testing.T) {
	r := newTestRegistry()
	task := func() *Task { return &Task{Input: Blob{Data: []byte("a")}} }
	ab, err := r.Run(context.Background(), Pipeline{{Class: "suffix"}, {Class: "upper"}}, task())
	if err != nil {
		t.Fatal(err)
	}
	ba, err := r.Run(context.Background(), Pipeline{{Class: "upper"}, {Class: "suffix"}}, task())
	if err != nil {
		t.Fatal(err)
	}
	if string(ab.Data) != "A!" || string(ba.Data) != "A!" {
		// upper(suffix(a)) = "A!", suffix(upper(a)) = "A!" — same here,
		// but verify both ran fully.
		t.Fatalf("ab=%q ba=%q", ab.Data, ba.Data)
	}
}

func TestEmptyPipelinePassesThrough(t *testing.T) {
	r := newTestRegistry()
	in := Blob{MIME: "x", Data: []byte("untouched")}
	out, err := r.Run(context.Background(), nil, &Task{Input: in})
	if err != nil {
		t.Fatal(err)
	}
	if string(out.Data) != "untouched" {
		t.Fatalf("out = %q", out.Data)
	}
}

func TestPipelineStageError(t *testing.T) {
	r := newTestRegistry()
	_, err := r.Run(context.Background(),
		Pipeline{{Class: "upper"}, {Class: "failing"}, {Class: "suffix"}},
		&Task{Input: Blob{Data: []byte("x")}})
	if err == nil || !strings.Contains(err.Error(), "failing") {
		t.Fatalf("err = %v", err)
	}
}

func TestPipelineUnknownClass(t *testing.T) {
	r := newTestRegistry()
	_, err := r.Run(context.Background(), Pipeline{{Class: "ghost"}}, &Task{})
	if !errors.Is(err, ErrUnknownClass) {
		t.Fatalf("err = %v", err)
	}
}

func TestAggregationConsumesInputs(t *testing.T) {
	r := newTestRegistry()
	out, err := r.Run(context.Background(),
		Pipeline{{Class: "concat"}, {Class: "upper"}},
		&Task{Inputs: []Blob{{Data: []byte("a")}, {Data: []byte("b")}, {Data: []byte("c")}}})
	if err != nil {
		t.Fatal(err)
	}
	if string(out.Data) != "ABC" {
		t.Fatalf("out = %q", out.Data)
	}
}

func TestParamLayering(t *testing.T) {
	task := &Task{
		Profile: map[string]string{"quality": "50", "scale": "2"},
		Params:  map[string]string{"quality": "25"},
	}
	if got := task.Param("quality", "75"); got != "25" {
		t.Fatalf("stage param should win: %q", got)
	}
	if got := task.Param("scale", "1"); got != "2" {
		t.Fatalf("profile should beat default: %q", got)
	}
	if got := task.Param("missing", "def"); got != "def" {
		t.Fatalf("default: %q", got)
	}
}

func TestParamConversions(t *testing.T) {
	task := &Task{Params: map[string]string{"n": "42", "bad": "xyz", "b": "true"}}
	if task.ParamInt("n", 0) != 42 {
		t.Fatal("ParamInt")
	}
	if task.ParamInt("bad", 7) != 7 {
		t.Fatal("ParamInt malformed should default")
	}
	if task.ParamInt("missing", 9) != 9 {
		t.Fatal("ParamInt missing")
	}
	if !task.ParamBool("b", false) {
		t.Fatal("ParamBool")
	}
	if task.ParamBool("bad", true) != true {
		t.Fatal("ParamBool malformed should default")
	}
}

func TestBlobHelpers(t *testing.T) {
	b := Blob{MIME: "x", Data: []byte("abc")}
	if b.Size() != 3 {
		t.Fatal("Size")
	}
	b2 := b.WithMeta("origSize", "100")
	if b2.Meta["origSize"] != "100" {
		t.Fatal("WithMeta")
	}
	if b.Meta != nil {
		t.Fatal("WithMeta mutated the original")
	}
}

func TestCacheKeyDistinguishesVariants(t *testing.T) {
	p1 := Pipeline{{Class: "distill", Params: map[string]string{"q": "25"}}}
	p2 := Pipeline{{Class: "distill", Params: map[string]string{"q": "50"}}}
	profA := map[string]string{"screen": "640"}
	profB := map[string]string{"screen": "320"}

	keys := map[string]bool{}
	for _, p := range []Pipeline{p1, p2} {
		for _, prof := range []map[string]string{profA, profB} {
			keys[p.CacheKey("http://x/y.sgif", prof)] = true
		}
	}
	if len(keys) != 4 {
		t.Fatalf("expected 4 distinct variant keys, got %d", len(keys))
	}
	// Identical inputs share a key (users with equal prefs share
	// cache entries).
	if p1.CacheKey("u", profA) != p1.CacheKey("u", map[string]string{"screen": "640"}) {
		t.Fatal("equal profiles should share cache keys")
	}
}

func TestCacheKeyDeterministicOrder(t *testing.T) {
	// Map iteration order must not leak into keys.
	check := func(a, b, c string) bool {
		prof1 := map[string]string{"k1": a, "k2": b, "k3": c}
		prof2 := map[string]string{"k3": c, "k1": a, "k2": b}
		p := Pipeline{{Class: "w"}}
		return p.CacheKey("obj", prof1) == p.CacheKey("obj", prof2)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestRegistryClasses: every registered class instantiates, and a class
// nobody registered is ErrUnknownClass.
func TestRegistryClasses(t *testing.T) {
	r := newTestRegistry()
	for _, class := range []string{"upper", "suffix", "failing", "concat"} {
		if w, err := r.New(class); err != nil || w == nil {
			t.Fatalf("%s: %v, %v", class, w, err)
		}
	}
	if _, err := r.New("nobody"); !errors.Is(err, ErrUnknownClass) {
		t.Fatalf("unregistered class: %v, want ErrUnknownClass", err)
	}
}

func TestPipelineString(t *testing.T) {
	p := Pipeline{{Class: "a"}, {Class: "b"}}
	if p.String() != "a|b" {
		t.Fatalf("String = %q", p.String())
	}
}

func TestWorkerStatelessness(t *testing.T) {
	// Each Run instantiates fresh workers; a worker that (wrongly)
	// kept state would accumulate across instantiations. Verify the
	// registry hands out independent instances.
	r := NewRegistry()
	counter := 0
	r.Register("counting", func() Worker {
		local := 0
		return WorkerFunc{Name: "counting", Fn: func(ctx context.Context, t *Task) (Blob, error) {
			local++
			counter++
			return Blob{Data: []byte(fmt.Sprintf("%d", local))}, nil
		}}
	})
	for i := 0; i < 3; i++ {
		out, err := r.Run(context.Background(), Pipeline{{Class: "counting"}}, &Task{})
		if err != nil {
			t.Fatal(err)
		}
		if string(out.Data) != "1" {
			t.Fatalf("instance %d saw local state %q", i, out.Data)
		}
	}
	if counter != 3 {
		t.Fatalf("factory calls = %d", counter)
	}
}
