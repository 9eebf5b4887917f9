package trace

import (
	"encoding/json"
	"fmt"
	"time"
)

// DefaultBuffer is the ring capacity used when Options.Buffer is zero:
// enough tail to see the whole protocol exchange around a breach
// without holding a long chaos horizon's full event stream.
const DefaultBuffer = 4096

// DefaultMetricsEvery is the default deterministic sim-time sampling
// period for the metrics registry.
const DefaultMetricsEvery = 5 * time.Second

// Options configures one trial's Recorder and identifies the trial for
// bundle snapshots. The identity fields (Scenario..BaseSeed) are
// descriptive — they flow verbatim into any Bundle the trial emits and
// into the replay path that re-derives the trial's seed.
type Options struct {
	// Buffer is the ring capacity in records (DefaultBuffer when 0).
	Buffer int
	// Dir, when non-empty, enables breach bundle snapshots into that
	// directory. Tracing with Dir == "" still records and digests (the
	// replay path runs this way) but writes nothing.
	Dir string
	// MetricsEvery is the sim-time period of metric gauge samples
	// (DefaultMetricsEvery when 0; negative disables sampling).
	// Sampling ticks are kernel events, so this value is part of the
	// trial's event stream identity: a replay must use the recorded
	// value to reproduce the digest.
	MetricsEvery time.Duration

	// Trial identity, recorded into bundles.
	Scenario string
	Campaign string
	Cell     string
	Run      int
	BaseSeed int64

	// Meta is an opaque caller payload stored in the bundle header —
	// the façade stores the marshaled campaign Scale here so replay can
	// reconstruct the exact experiment configuration.
	Meta json.RawMessage

	// OnBundle, when set, is called with the path of every bundle this
	// trial writes.
	OnBundle func(path string)
}

// Spec switches on the structured trace recorder for every run of a
// campaign or scenario (the public API names it reesift.TraceSpec). Each
// run then carries a bounded ring of typed trace records (kernel
// substrate events, protocol spans, metric samples) plus a running digest
// of the full stream; runs classified as system failures snapshot a
// self-contained repro bundle. Tracing draws no randomness, so
// classifications are identical traced and untraced.
type Spec struct {
	// Dir is the directory breach repro bundles are written into. Empty
	// disables bundle writing: runs still record and digest (the replay
	// path traces this way to reproduce a recorded digest), but nothing
	// touches the filesystem.
	Dir string
	// Buffer is the per-run ring capacity in records (default 4096).
	Buffer int
	// MetricsEvery is the sim-time period of metric gauge samples
	// (default 5s; negative disables). Sampling ticks are kernel events
	// and therefore part of the trace digest identity — a replay must
	// use the recorded value, which bundles carry.
	MetricsEvery time.Duration

	// scenario, meta, and onBundle are stamped by a scenario run (see
	// Stamp): the owning scenario id, the marshaled experiment
	// configuration (so a bundle alone can reconstruct the experiment),
	// and the bundle-path collector.
	scenario string
	meta     json.RawMessage
	onBundle func(path string)
}

// Stamp returns a copy of s carrying a scenario run's identity: the
// scenario id, the marshaled configuration every bundle stores, and the
// collector each written bundle's path goes to. It is a function, not a
// method, so the public alias of Spec exposes only the caller's settings.
func Stamp(s *Spec, scenario string, meta json.RawMessage, onBundle func(path string)) *Spec {
	t := *s
	t.scenario, t.meta, t.onBundle = scenario, meta, onBundle
	return &t
}

// TrialOptions returns the recorder options of one trial traced under s:
// the trial's trace and replay identity (campaign, cell, run) and the
// base seed its seed derives from. A nil spec returns nil, which keeps
// the trial untraced. Campaigns build every run's options here, and so
// does scenario code that drives its own trials through the injection
// runner, so its bundles carry the same identity and replay the same way.
func TrialOptions(s *Spec, campaign, cell string, run int, baseSeed int64) *Options {
	if s == nil {
		return nil
	}
	return &Options{
		Buffer:       s.Buffer,
		Dir:          s.Dir,
		MetricsEvery: s.MetricsEvery,
		Scenario:     s.scenario,
		Campaign:     campaign,
		Cell:         cell,
		Run:          run,
		BaseSeed:     baseSeed,
		Meta:         s.meta,
		OnBundle:     s.onBundle,
	}
}

// withDefaults normalizes the zero values.
func (o Options) withDefaults() Options {
	if o.Buffer <= 0 {
		o.Buffer = DefaultBuffer
	}
	if o.MetricsEvery == 0 {
		o.MetricsEvery = DefaultMetricsEvery
	}
	return o
}

// Recorder is the bounded per-trial trace recorder: a ring of the
// newest Buffer records, a running FNV-1a digest over every record
// ever emitted, and a total count. A Recorder is single-trial,
// single-goroutine state (each injection Runner owns one), so it
// carries no locks.
type Recorder struct {
	opts   Options
	ring   []Record
	next   int // ring slot the next record lands in
	count  int // records currently held (≤ len(ring))
	total  uint64
	digest uint64
}

// NewRecorder builds a Recorder for one trial.
func NewRecorder(opts Options) *Recorder {
	o := opts.withDefaults()
	return &Recorder{
		opts:   o,
		ring:   make([]Record, o.Buffer),
		digest: fnvOffset,
	}
}

// Options returns the normalized options the recorder was built with.
func (r *Recorder) Options() Options { return r.opts }

// Enabled reports whether emissions are wanted: a constructed Recorder
// always records, and a nil one never does. Call sites are required
// (and lint-enforced) to guard record construction behind it, so a
// missing recorder costs one branch on the hot path.
func (r *Recorder) Enabled() bool { return r != nil }

// Emit folds the record into the digest and overwrites the oldest ring
// slot. No allocation.
func (r *Recorder) Emit(rec Record) {
	r.digest = fold(r.digest, rec)
	r.total++
	r.ring[r.next] = rec
	r.next = (r.next + 1) % len(r.ring)
	if r.count < len(r.ring) {
		r.count++
	}
}

// Total returns how many records were emitted over the trial (including
// those the ring has since dropped).
func (r *Recorder) Total() uint64 { return r.total }

// Digest returns the running FNV-1a digest over every emitted record,
// formatted as "fnv1a:%016x". Two trials with equal digests emitted
// identical record streams — this is the replay fingerprint.
func (r *Recorder) Digest() string {
	return fmt.Sprintf("fnv1a:%016x", r.digest)
}

// Records returns the retained tail, oldest first.
func (r *Recorder) Records() []Record {
	out := make([]Record, 0, r.count)
	start := r.next - r.count
	if start < 0 {
		start += len(r.ring)
	}
	for i := 0; i < r.count; i++ {
		out = append(out, r.ring[(start+i)%len(r.ring)])
	}
	return out
}

// Gauge is one registered metric: a name and a sampler closure reading
// the current value.
type Gauge struct {
	Name string
	Read func() int64
}

// Metrics is a small gauge registry sampled on deterministic sim-time
// ticks. The injection Runner registers kernel and environment counters
// (events fired, messages sent, reinstalls, queue depth) and schedules
// a self-rescheduling kernel event that calls Sample; because sampling
// draws no randomness, enabling it never perturbs the relative order of
// the trial's own events.
type Metrics struct {
	gauges []Gauge
}

// Register adds a gauge. Registration order is sample order and is part
// of the trace digest, so keep it deterministic.
func (m *Metrics) Register(name string, read func() int64) {
	m.gauges = append(m.gauges, Gauge{Name: name, Read: read})
}

// Sample emits one KindMetric record per gauge at the given sim time.
func (m *Metrics) Sample(at time.Duration, rec *Recorder) {
	if !rec.Enabled() {
		return
	}
	for _, g := range m.gauges {
		rec.Emit(Record{At: at, Kind: KindMetric, Op: g.Name, A: g.Read()})
	}
}
