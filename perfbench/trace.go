package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"lcsf/internal/obs"
)

// span is one timed call the benchmark made into a layer. Spans of one op
// share Op; Parent is the enclosing span's ID, or -1 for an op's root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Derived spans are laid out from the engine's own phase timings (read
	// through core.Config.Collector) rather than timed by the benchmark:
	// their durations are measured, their start offsets are not.
	Derived bool `json:"derived,omitempty"`
}

// tracer keeps every span in memory; spans are written out once, at exit.
// A nil tracer records nothing, so untraced code paths call it freely.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID (-1 on a nil tracer).
func (t *tracer) begin(op, parent int, name string) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: int64(time.Since(t.epoch))})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.epoch))
}

// add records a span whose bounds the caller measured.
func (t *tracer) add(op, parent int, name string, start, end time.Time, derived bool) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)), Derived: derived})
	return id
}

// auditPhases names the engine's per-phase timings, in execution order,
// with the span name each becomes. They are the obs phase histograms core
// records once per audit.
var auditPhases = []struct{ metric, layer string }{
	{obs.MAuditPhasePartitionSeconds, "core.runner"},
	{obs.MAuditPhaseIndexSeconds, "core.index"},
	{obs.MAuditPhasePrepareSeconds, "core.prepare"},
	{obs.MAuditPhasePrewarmSeconds, "core.prewarm"},
	{obs.MAuditPhaseSweepSeconds, "core.sweep"},
	{obs.MAuditPhaseFDRSeconds, "core.fdr"},
}

// addPhases lays the audit's phase timings out as derived child spans of
// the audit span, back to back from its start. snap must come from a
// collector that saw only the audit inside that span.
func (t *tracer) addPhases(op, parent int, snap obs.Snapshot) {
	if t == nil || parent < 0 {
		return
	}
	at := t.epoch.Add(time.Duration(t.spans[parent].Start))
	for _, ph := range auditPhases {
		d := time.Duration(snap.Histograms[ph.metric].Sum * float64(time.Second))
		t.add(op, parent, ph.layer, at, at.Add(d), true)
		at = at.Add(d)
	}
}

// perOp returns each op's time, in seconds, in spans named in names. With
// self set, a span counts only its self time: its duration minus the part
// its children cover. Ops with no such span are absent.
func (t *tracer) perOp(names []string, self bool) map[int]float64 {
	out := make(map[int]float64)
	if t == nil {
		return out
	}
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if self && s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for _, s := range t.spans {
		if want[s.Name] {
			out[s.Op] += float64(s.End-s.Start-child[s.ID]) / 1e9
		}
	}
	return out
}

// median returns the median over ops of each op's time in spans of the
// named layer (see perOp); ok is false when no op recorded the layer.
func (t *tracer) median(name string, self bool) (v float64, ok bool) {
	perOp := t.perOp([]string{name}, self)
	xs := make([]float64, 0, len(perOp))
	for _, x := range perOp {
		xs = append(xs, x)
	}
	return median(xs), len(xs) > 0
}

// write stores the spans as JSON lines under dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("creating trace directory: %w", err)
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("creating trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close() // the encode error is the one worth returning
			return "", fmt.Errorf("writing trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one worth returning
		return "", fmt.Errorf("writing trace: %w", err)
	}
	return path, f.Close()
}
