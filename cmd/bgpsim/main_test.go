package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestAbortWritesTruncatedTrace: a run that an injected kill aborts
// exits 1, names the failed rank, and still writes the trace recorded
// up to the abort to the -trace file.
func TestAbortWritesTruncatedTrace(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "t.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-ranks", "64", "-bench", "alltoall", "-bytes", "65536",
		"-faults", "kill=3@2us", "-trace", trace}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit status %d, want 1; stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "rank 3") {
		t.Errorf("stderr does not name the killed rank:\n%s", stderr.String())
	}
	b, err := os.ReadFile(trace)
	if err != nil {
		t.Fatalf("no trace after the abort: %v", err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("truncated trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Errorf("truncated trace holds no events")
	}
}

// TestRunWritesTrace: a clean run exits 0 and writes its trace.
func TestRunWritesTrace(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "t.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-ranks", "16", "-bench", "barrier", "-trace", trace}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit status %d, want 0; stderr:\n%s", code, stderr.String())
	}
	if fi, err := os.Stat(trace); err != nil || fi.Size() == 0 {
		t.Fatalf("trace file: %v, %v", fi, err)
	}
}
