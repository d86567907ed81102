package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"bgpsim/internal/jobspec"
)

// Config sizes the server. Zero values take the listed defaults.
type Config struct {
	// Workers is the number of simulations run concurrently (default 2).
	Workers int
	// QueueDepth bounds accepted-but-not-started jobs; a full queue
	// rejects submissions with 429 rather than buffering without limit
	// (default 8).
	QueueDepth int
	// CacheEntries bounds the result cache (default 64 documents).
	CacheEntries int
	// RatePerSec throttles job submissions (token bucket); 0 disables
	// rate limiting.
	RatePerSec float64
	// Burst is the token-bucket depth when rate limiting (default 4).
	Burst int
	// MaxSnapshots bounds concurrently parked snapshots (default 16).
	MaxSnapshots int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 64
	}
	if c.Burst <= 0 {
		c.Burst = 4
	}
	if c.MaxSnapshots <= 0 {
		c.MaxSnapshots = 16
	}
	return c
}

// ResultDoc is the response body for a completed job: the canonical
// spec that identifies it, the exact stdout/stderr bytes the
// equivalent CLI run prints, and the observability artifacts the spec
// requested. A failed run carries Error alongside whatever partial
// output and artifacts the failure produced (a fault-aborted run still
// delivers its truncated trace). Documents are marshaled once when the
// job completes and replayed verbatim ever after.
type ResultDoc struct {
	Hash      string        `json:"hash"`
	Spec      jobspec.Spec  `json:"spec"`
	Stdout    string        `json:"stdout"`
	Stderr    string        `json:"stderr"`
	Artifacts []ArtifactDoc `json:"artifacts,omitempty"`
	Error     string        `json:"error,omitempty"`
}

// ArtifactDoc is one named artifact; Data is base64 in the JSON form.
type ArtifactDoc struct {
	Name string `json:"name"`
	Data []byte `json:"data"`
}

// jobStatus is a job's lifecycle phase.
const (
	statusQueued  = "queued"
	statusRunning = "running"
	statusDone    = "done"
)

// jobEvent is one lifecycle transition, streamed to /events
// subscribers.
type jobEvent struct {
	Name string // SSE event name: queued, running, done
	Data string // JSON payload
}

// jobState is one in-flight job. After completion the marshaled
// document moves to the cache and the state is forgotten.
type jobState struct {
	hash string
	spec jobspec.Spec // identity form: canonical with Shards zeroed

	mu      sync.Mutex
	status  string
	history []jobEvent
	subs    []chan jobEvent

	done chan struct{}
	doc  []byte // set before done closes
}

func newJobState(hash string, spec jobspec.Spec) *jobState {
	js := &jobState{hash: hash, spec: spec, done: make(chan struct{})}
	js.transition(statusQueued, "")
	return js
}

// transition records and broadcasts a lifecycle event.
func (j *jobState) transition(status, detail string) {
	j.mu.Lock()
	j.status = status
	payload := map[string]string{"hash": j.hash, "status": status}
	if detail != "" {
		payload["error"] = detail
	}
	data, _ := json.Marshal(payload)
	ev := jobEvent{Name: status, Data: string(data)}
	j.history = append(j.history, ev)
	subs := append([]chan jobEvent(nil), j.subs...)
	j.mu.Unlock()
	for _, ch := range subs {
		select {
		case ch <- ev:
		default: // slow subscriber; it still has the done channel
		}
	}
}

// subscribe atomically snapshots the history and registers a live
// channel, so a subscriber sees every event exactly once.
func (j *jobState) subscribe() ([]jobEvent, chan jobEvent) {
	ch := make(chan jobEvent, 8)
	j.mu.Lock()
	history := append([]jobEvent(nil), j.history...)
	j.subs = append(j.subs, ch)
	j.mu.Unlock()
	return history, ch
}

func (j *jobState) currentStatus() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// Server is the bgpsimd job service. Create with New, mount via
// Handler, stop with Drain.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	cache *resultCache
	lim   *limiter

	mu          sync.Mutex
	inflight    map[string]*jobState
	queue       chan *jobState
	draining    bool
	queueClosed bool

	jobWG    sync.WaitGroup // accepted jobs not yet completed
	workerWG sync.WaitGroup

	snapMu    sync.Mutex
	snapshots map[string]*snapshot
	snapSeq   int

	completed atomic.Uint64
	failed    atomic.Uint64
}

// New starts a server's worker pool and returns it. The caller serves
// s.Handler() and calls Drain on shutdown.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		cache:     newResultCache(cfg.CacheEntries),
		inflight:  make(map[string]*jobState),
		queue:     make(chan *jobState, cfg.QueueDepth),
		snapshots: make(map[string]*snapshot),
	}
	if cfg.RatePerSec > 0 {
		s.lim = newLimiter(cfg.RatePerSec, cfg.Burst)
	}
	s.mux = http.NewServeMux()
	s.routes()
	s.workerWG.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{hash}", s.handleGetJob)
	s.mux.HandleFunc("GET /v1/jobs/{hash}/artifacts/{name}", s.handleArtifact)
	s.mux.HandleFunc("GET /v1/jobs/{hash}/events", s.handleEvents)
	s.mux.HandleFunc("POST /v1/snapshots", s.handleSnapshotCreate)
	s.mux.HandleFunc("GET /v1/snapshots", s.handleSnapshotList)
	s.mux.HandleFunc("GET /v1/snapshots/{id}", s.handleSnapshotGet)
	s.mux.HandleFunc("POST /v1/snapshots/{id}/resume", s.handleSnapshotResume)
	s.mux.HandleFunc("POST /v1/snapshots/{id}/fork", s.handleSnapshotFork)
	s.mux.HandleFunc("DELETE /v1/snapshots/{id}", s.handleSnapshotDelete)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain performs a graceful shutdown: refuse new submissions, let
// every accepted job run to completion, stop the workers, and finish
// parked snapshots so their simulation goroutines unwind. Returns
// ctx.Err if the context expires first (jobs then keep running; a
// second Drain may be attempted).
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.jobWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}

	s.mu.Lock()
	if !s.queueClosed {
		close(s.queue)
		s.queueClosed = true
	}
	s.mu.Unlock()
	s.workerWG.Wait()
	s.finishSnapshots()
	return nil
}

func (s *Server) worker() {
	defer s.workerWG.Done()
	for js := range s.queue {
		s.runJob(js)
		s.jobWG.Done()
	}
}

// runJob executes a job in identity form and publishes its document.
// Identity form means execution on the serial kernel (Shards zeroed):
// a run at shards 0 can print different bytes than one at shards >= 1
// (the kernels break same-timestamp ties by different rules), so only
// one fixed count makes the whole result — stdout, stderr, artifacts —
// depend on the job's hash alone, never on this server's execution
// knobs; that is what makes the entire document cacheable.
func (s *Server) runJob(js *jobState) {
	js.transition(statusRunning, "")
	var stdout, stderr bytes.Buffer
	rr, err := jobspec.Run(js.spec, &stdout, &stderr)
	doc := ResultDoc{
		Hash:   js.hash,
		Spec:   js.spec,
		Stdout: stdout.String(),
		Stderr: stderr.String(),
	}
	if rr != nil {
		for _, a := range rr.Artifacts {
			doc.Artifacts = append(doc.Artifacts, ArtifactDoc{Name: a.Name, Data: a.Data})
		}
	}
	detail := ""
	if err != nil {
		doc.Error = err.Error()
		detail = doc.Error
		s.failed.Add(1)
	} else {
		s.completed.Add(1)
	}
	b, merr := json.Marshal(doc)
	if merr != nil {
		// Only reachable if an artifact or spec stops being marshalable;
		// publish the failure rather than wedging waiters.
		b, _ = json.Marshal(ResultDoc{Hash: js.hash, Spec: js.spec,
			Error: fmt.Sprintf("server: marshal result: %v", merr)})
	}
	s.publish(js, b)
	js.transition(statusDone, detail)
}

// publish stores the document, wakes waiters, and retires the job from
// the in-flight table (later submissions hit the cache).
func (s *Server) publish(js *jobState, doc []byte) {
	s.cache.Put(js.hash, doc)
	js.mu.Lock()
	js.doc = doc
	js.mu.Unlock()
	close(js.done)
	s.mu.Lock()
	delete(s.inflight, js.hash)
	s.mu.Unlock()
}

// admit registers a job for execution, joining an already-in-flight
// run of the same hash if one exists.
func (s *Server) admit(hash string, spec jobspec.Spec) (js *jobState, joined bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, false, errDraining
	}
	if js, ok := s.inflight[hash]; ok {
		return js, true, nil
	}
	js = newJobState(hash, spec)
	select {
	case s.queue <- js:
	default:
		return nil, false, errQueueFull
	}
	s.jobWG.Add(1)
	s.inflight[hash] = js
	return js, false, nil
}

var (
	errDraining  = fmt.Errorf("server is draining")
	errQueueFull = fmt.Errorf("job queue is full")
)

// handleSubmit accepts a job spec, answers from the cache when the
// job's hash is known, and otherwise queues it. By default the request
// blocks until the result document is ready; ?wait=0 returns 202 with
// the hash for polling. The X-Bgpsimd-Cache header says how the body
// was produced (hit, miss, join) — the body itself is byte-identical
// across all three.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		httpError(w, http.StatusServiceUnavailable, "server is draining; not accepting jobs")
		return
	}
	if s.lim != nil && !s.lim.Allow() {
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, "rate limit exceeded")
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("read body: %v", err))
		return
	}
	spec, err := jobspec.Decode(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Identity form: the server always runs on the serial kernel, so
	// results are independent of the client's shard request. Output
	// bytes are identical at any count >= 1 but can differ between 0
	// and 1, so the request cannot simply be honoured; the serial
	// kernel also never emits shard-fallback notes.
	spec.Shards = 0
	hash := spec.Hash()

	if doc, ok := s.cache.Get(hash); ok {
		writeDoc(w, doc, "hit")
		return
	}
	js, joined, err := s.admit(hash, spec)
	switch err {
	case nil:
	case errDraining:
		httpError(w, http.StatusServiceUnavailable, "server is draining; not accepting jobs")
		return
	case errQueueFull:
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, "job queue is full")
		return
	default:
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if r.URL.Query().Get("wait") == "0" {
		writeJSON(w, http.StatusAccepted, map[string]string{"hash": hash, "status": js.currentStatus()})
		return
	}
	select {
	case <-js.done:
	case <-r.Context().Done():
		// Client gave up; the job keeps running and lands in the cache.
		return
	}
	source := "miss"
	if joined {
		source = "join"
	}
	js.mu.Lock()
	doc := js.doc
	js.mu.Unlock()
	writeDoc(w, doc, source)
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	if doc, ok := s.cache.Get(hash); ok {
		writeDoc(w, doc, "hit")
		return
	}
	s.mu.Lock()
	js := s.inflight[hash]
	s.mu.Unlock()
	if js != nil {
		writeJSON(w, http.StatusAccepted, map[string]string{"hash": hash, "status": js.currentStatus()})
		return
	}
	httpError(w, http.StatusNotFound, "unknown job hash")
}

func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	hash, name := r.PathValue("hash"), r.PathValue("name")
	doc, ok := s.cache.Get(hash)
	if !ok {
		httpError(w, http.StatusNotFound, "no completed result for job hash")
		return
	}
	var rd ResultDoc
	if err := json.Unmarshal(doc, &rd); err != nil {
		httpError(w, http.StatusInternalServerError, fmt.Sprintf("decode stored result: %v", err))
		return
	}
	for _, a := range rd.Artifacts {
		if a.Name != name {
			continue
		}
		switch name {
		case jobspec.ArtifactTrace:
			w.Header().Set("Content-Type", "application/json")
		case jobspec.ArtifactLinks:
			w.Header().Set("Content-Type", "text/csv")
		default:
			w.Header().Set("Content-Type", "application/octet-stream")
		}
		w.Write(a.Data)
		return
	}
	httpError(w, http.StatusNotFound, fmt.Sprintf("job has no artifact %q", name))
}

// handleEvents streams a job's lifecycle transitions as server-sent
// events, replaying history on connect; the stream closes after the
// done event.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	s.mu.Lock()
	js := s.inflight[hash]
	s.mu.Unlock()
	if js == nil {
		// Completed jobs live only in the cache; synthesize the terminal
		// event so late subscribers still learn the outcome.
		if _, ok := s.cache.Get(hash); ok {
			w.Header().Set("Content-Type", "text/event-stream")
			w.Header().Set("Cache-Control", "no-store")
			fmt.Fprintf(w, "event: done\ndata: {\"hash\":%q,\"status\":\"done\"}\n\n", hash)
			flusher.Flush()
			return
		}
		httpError(w, http.StatusNotFound, "unknown job hash")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	history, ch := js.subscribe()
	for _, ev := range history {
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Name, ev.Data)
	}
	flusher.Flush()
	for _, ev := range history {
		if ev.Name == statusDone {
			return
		}
	}
	for {
		select {
		case ev := <-ch:
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Name, ev.Data)
			flusher.Flush()
			if ev.Name == statusDone {
				return
			}
		case <-js.done:
			// Drain any event raced past the channel, then emit done.
			for {
				select {
				case ev := <-ch:
					if ev.Name == statusDone {
						fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Name, ev.Data)
						flusher.Flush()
						return
					}
					fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Name, ev.Data)
				default:
					fmt.Fprintf(w, "event: done\ndata: {\"hash\":%q,\"status\":\"done\"}\n\n", hash)
					flusher.Flush()
					return
				}
			}
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.isDraining() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": status})
}

// Stats is the /v1/stats document.
type Stats struct {
	Draining  bool       `json:"draining"`
	Jobs      JobStats   `json:"jobs"`
	Cache     CacheStats `json:"cache"`
	Snapshots int        `json:"snapshots"`
}

// JobStats counts job outcomes and current load.
type JobStats struct {
	Inflight  int    `json:"inflight"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
}

// CacheStats reports result-cache effectiveness.
type CacheStats struct {
	Entries   int    `json:"entries"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// CurrentStats snapshots the server counters (also served at
// /v1/stats).
func (s *Server) CurrentStats() Stats {
	s.mu.Lock()
	inflight := len(s.inflight)
	draining := s.draining
	s.mu.Unlock()
	s.snapMu.Lock()
	snaps := len(s.snapshots)
	s.snapMu.Unlock()
	hits, misses, evictions := s.cache.Counters()
	return Stats{
		Draining: draining,
		Jobs: JobStats{
			Inflight:  inflight,
			Completed: s.completed.Load(),
			Failed:    s.failed.Load(),
		},
		Cache: CacheStats{
			Entries:   s.cache.Len(),
			Hits:      hits,
			Misses:    misses,
			Evictions: evictions,
		},
		Snapshots: snaps,
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.CurrentStats())
}

func writeDoc(w http.ResponseWriter, doc []byte, source string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Bgpsimd-Cache", source)
	w.Write(doc)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

// limiter is a token bucket over the wall clock: sustained rate
// tokens/sec, bucket depth burst.
type limiter struct {
	mu     sync.Mutex
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
}

func newLimiter(rate float64, burst int) *limiter {
	return &limiter{rate: rate, burst: float64(burst), tokens: float64(burst), last: time.Now()}
}

// Allow consumes one token if available.
func (l *limiter) Allow() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	now := time.Now()
	l.tokens += now.Sub(l.last).Seconds() * l.rate
	if l.tokens > l.burst {
		l.tokens = l.burst
	}
	l.last = now
	if l.tokens < 1 {
		return false
	}
	l.tokens--
	return true
}
