package tenant

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// Entry is one line of the persistent request/audit log: who (tenant,
// request ID), what (method, path, job), and the outcome (status, sizes,
// latency). One JSON object per line, append-only, so the file is both a
// compliance artifact (regulators auditing the auditor) and greppable
// operational history.
type Entry struct {
	Time      time.Time `json:"time"`
	RequestID string    `json:"request_id"`
	Tenant    string    `json:"tenant,omitempty"`
	Method    string    `json:"method"`
	Path      string    `json:"path"`
	Status    int       `json:"status"`
	JobID     string    `json:"job_id,omitempty"`
	BytesIn   int64     `json:"bytes_in"`
	BytesOut  int64     `json:"bytes_out"`
	Seconds   float64   `json:"seconds"`
}

// Log is an append-only JSONL request log. Every method is safe for
// concurrent use and safe on a nil receiver (a no-op), so callers thread an
// optional *Log without guards.
type Log struct {
	mu     sync.Mutex
	w      io.Writer
	closer io.Closer
}

// OpenLog opens (creating if needed) an append-only log file. Appends from
// successive process runs accumulate; the file is never truncated.
func OpenLog(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("tenant: opening audit log: %w", err)
	}
	return &Log{w: f, closer: f}, nil
}

// Record appends one entry as a JSON line.
func (l *Log) Record(e Entry) error {
	if l == nil {
		return nil
	}
	data, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("tenant: encoding audit entry: %w", err)
	}
	data = append(data, '\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, err := l.w.Write(data); err != nil {
		return fmt.Errorf("tenant: appending audit entry: %w", err)
	}
	return nil
}

// Close flushes and closes the underlying file (a no-op for writer-backed
// and nil logs).
func (l *Log) Close() error {
	if l == nil || l.closer == nil {
		return nil
	}
	return l.closer.Close()
}
