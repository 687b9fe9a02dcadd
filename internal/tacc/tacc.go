// Package tacc defines the TACC programming model (paper §2.3):
// services are composed from stateless workers that Transform a single
// data object or Aggregate several, with uniform Caching and per-user
// Customization handled by the surrounding layers. Workers are chained
// Unix-pipeline style; the selection of which workers to invoke is
// service-specific and controlled outside the workers themselves.
//
// A worker sees exactly one thing: a Task carrying its input(s), the
// requesting user's profile (delivered automatically, which is what
// lets the same worker serve many services), and per-stage parameters.
// Workers hold no state between tasks — that statelessness is what the
// SNS layer's interchangeability, load balancing and restart-anywhere
// fault tolerance rely on.
package tacc

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Blob is a typed chunk of content flowing through a pipeline.
type Blob struct {
	MIME string
	Data []byte
	// Meta carries annotations a worker wants to surface (e.g.
	// original size, distillation parameters used).
	Meta map[string]string
}

// Size returns the content length in bytes.
func (b Blob) Size() int { return len(b.Data) }

// WithMeta returns a copy of the blob with one metadata entry added.
func (b Blob) WithMeta(key, val string) Blob {
	meta := make(map[string]string, len(b.Meta)+1)
	for k, v := range b.Meta {
		meta[k] = v
	}
	meta[key] = val
	b.Meta = meta
	return b
}

// Task is one unit of work handed to a worker.
type Task struct {
	// Key names the object being operated on (typically the URL);
	// caches key on it plus the parameters.
	Key string
	// Input is the object for transformation workers.
	Input Blob
	// Inputs carries multiple objects for aggregation workers; when
	// non-empty it takes precedence over Input.
	Inputs []Blob
	// Profile is the requesting user's customization record,
	// automatically supplied by the front end (§2.3).
	Profile map[string]string
	// Params are per-stage arguments from the pipeline definition.
	Params map[string]string
}

// Param looks up a parameter: explicit stage params win, then the user
// profile, then the default. This layering is the paper's "appropriate
// profile information is automatically delivered to workers".
func (t *Task) Param(key, def string) string {
	if v, ok := t.Params[key]; ok {
		return v
	}
	if v, ok := t.Profile[key]; ok {
		return v
	}
	return def
}

// ParamInt is Param with integer conversion; malformed values fall
// back to the default (workers must tolerate junk profiles).
func (t *Task) ParamInt(key string, def int) int {
	v := t.Param(key, "")
	if v == "" {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return def
	}
	return n
}

// ParamBool is Param with boolean conversion.
func (t *Task) ParamBool(key string, def bool) bool {
	v := t.Param(key, "")
	if v == "" {
		return def
	}
	b, err := strconv.ParseBool(v)
	if err != nil {
		return def
	}
	return b
}

// Worker is a stateless TACC building block. Process must not retain
// state between calls; it may be arbitrarily buggy (panics are
// isolated by the worker stub) and need not be thread-safe (the stub
// serializes calls).
type Worker interface {
	// Class names the worker type (e.g. "distill-sgif"). All
	// instances of a class are interchangeable.
	Class() string
	// Process executes one task.
	Process(ctx context.Context, task *Task) (Blob, error)
}

// WorkerFunc adapts a function to Worker.
type WorkerFunc struct {
	Name string
	Fn   func(ctx context.Context, task *Task) (Blob, error)
}

// Class implements Worker.
func (w WorkerFunc) Class() string { return w.Name }

// Process implements Worker.
func (w WorkerFunc) Process(ctx context.Context, task *Task) (Blob, error) {
	return w.Fn(ctx, task)
}

// Stage is one step of a pipeline: a worker class plus its parameters.
type Stage struct {
	Class  string
	Params map[string]string
}

// Pipeline is an ordered chain of stages; the output blob of stage i
// is the input of stage i+1 — "Unix-pipeline-like chaining of an
// arbitrary number of stateless transformations and aggregations".
type Pipeline []Stage

// String renders the pipeline compactly ("distill-sgif|munge-html").
func (p Pipeline) String() string {
	parts := make([]string, len(p))
	for i, s := range p {
		parts[i] = s.Class
	}
	return strings.Join(parts, "|")
}

// CacheKey derives a cache key for the pipeline applied to an object:
// object key + every stage and parameter that affects the output. Two
// users with identical preferences share cache entries; different
// preferences get distinct distilled variants (§3.1.8: objects are
// "named by the object URL and the user preferences").
func (p Pipeline) CacheKey(objectKey string, profile map[string]string) string {
	var b strings.Builder
	b.WriteString(objectKey)
	for _, st := range p {
		b.WriteByte('|')
		b.WriteString(st.Class)
		writeSortedKV(&b, st.Params)
	}
	b.WriteByte('#')
	writeSortedKV(&b, profile)
	return b.String()
}

func writeSortedKV(b *strings.Builder, m map[string]string) {
	if len(m) == 0 {
		return
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b.WriteByte(';')
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(m[k])
	}
}

// Registry maps worker classes to factories, letting the manager spawn
// fresh worker instances on any node on demand (§2.2.1).
type Registry struct {
	mu        sync.RWMutex
	factories map[string]func() Worker
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{factories: make(map[string]func() Worker)}
}

// ErrUnknownClass reports a class with no registered factory.
var ErrUnknownClass = errors.New("tacc: unknown worker class")

// Register installs a factory for a class, replacing any previous one.
func (r *Registry) Register(class string, factory func() Worker) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.factories[class] = factory
}

// New instantiates a worker of the given class.
func (r *Registry) New(class string) (Worker, error) {
	r.mu.RLock()
	f, ok := r.factories[class]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownClass, class)
	}
	return f(), nil
}

// Run executes a pipeline locally, instantiating each stage's worker
// from the registry. This is the composition semantics reference (the
// distributed path in the front end dispatches each stage to remote
// workers but must produce the same results).
func (r *Registry) Run(ctx context.Context, p Pipeline, task *Task) (Blob, error) {
	if len(p) == 0 {
		return task.Input, nil
	}
	cur := *task
	for i, stage := range p {
		w, err := r.New(stage.Class)
		if err != nil {
			return Blob{}, err
		}
		cur.Params = stage.Params
		out, err := w.Process(ctx, &cur)
		if err != nil {
			return Blob{}, fmt.Errorf("tacc: stage %d (%s): %w", i, stage.Class, err)
		}
		cur.Input = out
		cur.Inputs = nil // aggregation inputs are consumed by the first stage
	}
	return cur.Input, nil
}

// DispatchRule decides which pipeline serves a request — the
// service-layer logic the paper localizes in the front end (§2.2.1:
// "a front end encapsulates service-specific worker dispatch logic").
type DispatchRule func(url, mime string, profile map[string]string) Pipeline
