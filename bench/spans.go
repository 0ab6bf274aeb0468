package main

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// span is one harness-side interval around a call into a layer. Spans of
// one repetition or one job share Trace; Parent is the ID of the span
// that caused this one (0 for a root). A layer's self time is its span
// minus the part its children cover; the written file carries id and
// parent, so a trace viewer or a short script can compute it.
type span struct {
	ID     int
	Parent int
	Trace  int
	Name   string
	Start  time.Time
	End    time.Time
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog
// records nothing, so untraced runs pass nil and pay only the call.
type spanLog struct {
	mu    sync.Mutex
	spans []span
	epoch time.Time
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// add records a finished interval and returns its ID.
func (l *spanLog) add(trace, parent int, name string, start, end time.Time) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: start, End: end})
	return id
}

// open reserves a span whose end is not known yet (a repetition that
// will parent its stages); close it with done.
func (l *spanLog) open(trace, parent int, name string) int {
	return l.add(trace, parent, name, time.Now(), time.Time{})
}

func (l *spanLog) done(id int) {
	if l == nil || id == 0 {
		return
	}
	l.mu.Lock()
	l.spans[id-1].End = time.Now()
	l.mu.Unlock()
}

// timed runs fn inside a span.
func (l *spanLog) timed(trace, parent int, name string, fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	end := time.Now()
	l.add(trace, parent, name, start, end)
	return end.Sub(start), err
}

// all returns a copy of the recorded spans.
func (l *spanLog) all() []span {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

// durations returns the length of every span with the given name.
func (l *spanLog) durations(name string) []float64 {
	var out []float64
	for _, s := range l.all() {
		if s.Name == name && !s.End.IsZero() {
			out = append(out, s.End.Sub(s.Start).Seconds())
		}
	}
	return out
}

// writeChrome writes the spans as Chrome trace_event JSON ("X" complete
// events; pid is the trace, so one repetition or job is one row group).
func (l *spanLog) writeChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	spans := l.all()
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		if s.End.IsZero() {
			continue
		}
		events = append(events, event{
			Name: s.Name, Ph: "X",
			TS:  float64(s.Start.Sub(l.epoch).Nanoseconds()) / 1e3,
			Dur: float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
			PID: s.Trace, TID: 1,
			Args: map[string]int{"id": s.ID, "parent": s.Parent},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
