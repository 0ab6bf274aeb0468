package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one key-value span attribute. Values should be strings,
// integers, floats or bools so the Chrome trace export stays readable.
type Attr struct {
	Key   string
	Value any
}

// String builds a string attribute.
func String(key, value string) Attr { return Attr{Key: key, Value: value} }

// Int builds an integer attribute.
func Int(key string, value int) Attr { return Attr{Key: key, Value: value} }

// Float builds a float attribute.
func Float(key string, value float64) Attr { return Attr{Key: key, Value: value} }

// Bool builds a boolean attribute.
func Bool(key string, value bool) Attr { return Attr{Key: key, Value: value} }

// SpanRecord is one completed span.
type SpanRecord struct {
	// ID identifies the span; ParentID is 0 for root spans.
	ID, ParentID int64
	// RootID identifies the span's outermost ancestor; the Chrome trace
	// export maps each root chain to its own track (tid).
	RootID int64
	// TraceID attributes the span to one logical run (serve job or
	// seeded CLI run); empty when the span was opened without a
	// TraceContext. Children inherit their parent's trace ID.
	TraceID string
	Name    string
	// Start is the offset from the tracer's epoch; Duration is the
	// span's wall-clock length.
	Start    time.Duration
	Duration time.Duration
	Attrs    []Attr
}

// DefaultMaxSpans bounds a tracer's retained spans; spans started past
// the cap are timed but dropped on End, and counted in Dropped.
const DefaultMaxSpans = 1 << 19

// Tracer collects completed spans. It is safe for concurrent use. The
// zero value is not usable; construct with NewTracer.
type Tracer struct {
	epoch    time.Time
	nextID   atomic.Int64
	dropped  atomic.Int64
	maxSpans int

	// exportMu serializes exports; mu guards the span buffer. Exports
	// swap the buffer out under mu (double-buffering), so Record never
	// blocks behind — and never loses spans to — an in-progress export.
	exportMu sync.Mutex
	mu       sync.Mutex
	spans    []SpanRecord
	onEnd    func(SpanRecord)
}

// NewTracer returns a tracer whose span timestamps are relative to now.
func NewTracer() *Tracer {
	return &Tracer{epoch: time.Now(), maxSpans: DefaultMaxSpans}
}

// StartSpan opens a root span. End it to record it.
func (t *Tracer) StartSpan(name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	id := t.nextID.Add(1)
	return &Span{tracer: t, id: id, rootID: id, name: name, start: time.Now(), attrs: attrs}
}

// Dropped returns the number of spans discarded because the tracer was
// at capacity.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// Len returns the number of completed spans the tracer holds.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.exportMu.Lock()
	defer t.exportMu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// OnEnd registers a sink called (outside the tracer's locks) with every
// span as it completes — the seam the flight recorder taps. Set it
// before spans flow; a nil fn disables the sink.
func (t *Tracer) OnEnd(fn func(SpanRecord)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.onEnd = fn
	t.mu.Unlock()
}

// Spans returns a copy of the completed spans in completion order. The
// buffer is double-buffered around the copy: it is swapped out under
// the lock, copied without holding it, and merged back in front of any
// spans recorded meanwhile, so concurrent Record calls neither block on
// the O(n) copy nor get lost.
func (t *Tracer) Spans() []SpanRecord {
	if t == nil {
		return nil
	}
	t.exportMu.Lock()
	defer t.exportMu.Unlock()
	t.mu.Lock()
	detached := t.spans
	t.spans = nil
	t.mu.Unlock()
	out := make([]SpanRecord, len(detached))
	copy(out, detached)
	t.mu.Lock()
	t.spans = append(detached, t.spans...)
	t.mu.Unlock()
	return out
}

func (t *Tracer) record(rec SpanRecord) {
	t.mu.Lock()
	// The length check sees only the resident half while an export has
	// the buffer swapped out, so the cap can briefly overshoot by the
	// few spans recorded during an export; bounded memory still holds.
	if len(t.spans) >= t.maxSpans {
		onEnd := t.onEnd
		t.mu.Unlock()
		t.dropped.Add(1)
		if onEnd != nil {
			onEnd(rec)
		}
		return
	}
	t.spans = append(t.spans, rec)
	onEnd := t.onEnd
	t.mu.Unlock()
	if onEnd != nil {
		onEnd(rec)
	}
}

// Span is an in-flight operation. A nil span is a valid no-op, so code
// can call Child/SetAttr/End unconditionally.
type Span struct {
	tracer  *Tracer
	id      int64
	rootID  int64
	parent  int64
	traceID string
	name    string
	start   time.Time

	mu    sync.Mutex
	attrs []Attr
	ended bool
}

// setTraceID stamps the span's trace attribution; children inherit it.
func (s *Span) setTraceID(id string) {
	if s == nil || id == "" {
		return
	}
	s.traceID = id
}

// TraceID returns the span's trace attribution ("" for a nil span or an
// unattributed one).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.traceID
}

// Child opens a sub-span linked to s; it shares s's track in the Chrome
// trace export.
func (s *Span) Child(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	return &Span{
		tracer:  s.tracer,
		id:      s.tracer.nextID.Add(1),
		rootID:  s.rootID,
		parent:  s.id,
		traceID: s.traceID,
		name:    name,
		start:   time.Now(),
		attrs:   attrs,
	}
}

// SetAttr appends attributes to the span.
func (s *Span) SetAttr(attrs ...Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, attrs...)
	s.mu.Unlock()
}

// End completes the span and records it with its wall-clock duration.
// Ending a span twice records it once. The nil check stays in this thin
// wrapper so disabled tracing inlines to a single branch.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.finish()
}

func (s *Span) finish() {
	end := time.Now()
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	attrs := s.attrs
	s.mu.Unlock()
	s.tracer.record(SpanRecord{
		ID:       s.id,
		ParentID: s.parent,
		RootID:   s.rootID,
		TraceID:  s.traceID,
		Name:     s.name,
		Start:    s.start.Sub(s.tracer.epoch),
		Duration: end.Sub(s.start),
		Attrs:    attrs,
	})
}

// chromeEvent is one trace_event entry ("X" = complete event).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int64          `json:"pid"`
	Tid  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON object format of the trace_event spec.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace dumps the completed spans as a Chrome trace_event
// JSON file loadable in chrome://tracing and Perfetto. Each root span
// chain becomes its own track (tid), so concurrent operations do not
// interleave.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	spans := t.Spans()
	out := chromeTrace{TraceEvents: make([]chromeEvent, 0, len(spans)), DisplayTimeUnit: "ms"}
	for _, sp := range spans {
		args := make(map[string]any, len(sp.Attrs)+3)
		args["span_id"] = sp.ID
		if sp.ParentID != 0 {
			args["parent_id"] = sp.ParentID
		}
		if sp.TraceID != "" {
			args["trace_id"] = sp.TraceID
		}
		for _, a := range sp.Attrs {
			args[a.Key] = a.Value
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: sp.Name,
			Cat:  "ropus",
			Ph:   "X",
			Ts:   float64(sp.Start.Nanoseconds()) / 1e3,
			Dur:  float64(sp.Duration.Nanoseconds()) / 1e3,
			Pid:  1,
			Tid:  sp.RootID,
		})
		out.TraceEvents[len(out.TraceEvents)-1].Args = args
	}
	if d := t.Dropped(); d > 0 {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "telemetry.spans_dropped",
			Cat:  "ropus",
			Ph:   "X",
			Pid:  1,
			Tid:  0,
			Args: map[string]any{"dropped": d},
		})
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(out); err != nil {
		return fmt.Errorf("telemetry: chrome trace: %w", err)
	}
	return bw.Flush()
}
