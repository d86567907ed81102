package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCacheLRU(t *testing.T) {
	c := newResultCache(2)
	c.Put("a", []byte("A"))
	c.Put("b", []byte("B"))
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing")
	}
	c.Put("c", []byte("C")) // evicts b (a was just used)
	if _, ok := c.Get("b"); ok {
		t.Error("b survived eviction; want a retained as more recently used")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a evicted; want b evicted instead")
	}
	// Re-putting keeps the original bytes.
	c.Put("a", []byte("A2"))
	if doc, _ := c.Get("a"); string(doc) != "A" {
		t.Errorf("re-put replaced stored bytes: %q", doc)
	}
	hits, misses, evictions := c.Counters()
	if evictions != 1 {
		t.Errorf("evictions = %d, want 1", evictions)
	}
	if hits == 0 || misses == 0 {
		t.Errorf("counters not tracking: hits=%d misses=%d", hits, misses)
	}
}

// newTestServer starts a server and its HTTP front; the caller gets a
// base URL and a cleanup that drains.
func newTestServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	srv := New(cfg)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
		hs.Close()
	})
	return srv, hs.URL
}

func postJob(t *testing.T, base, body string) ([]byte, string, int) {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return b, resp.Header.Get("X-Bgpsimd-Cache"), resp.StatusCode
}

const benchJob = `{"kind":"bench","bench":"allreduce","ranks":32,"trace":true,"links":true}`

func TestSubmitCacheReplay(t *testing.T) {
	_, base := newTestServer(t, Config{})
	first, src, code := postJob(t, base, benchJob)
	if code != http.StatusOK || src != "miss" {
		t.Fatalf("first submit: status %d cache %q, want 200 miss", code, src)
	}
	second, src, code := postJob(t, base, benchJob)
	if code != http.StatusOK || src != "hit" {
		t.Fatalf("second submit: status %d cache %q, want 200 hit", code, src)
	}
	if !bytes.Equal(first, second) {
		t.Error("cache hit body differs from miss body")
	}
	// The shard request is an execution knob, not part of the job: a
	// sharded resubmission of the same job must hit with the same body.
	third, src, code := postJob(t, base, `{"kind":"bench","bench":"allreduce","ranks":32,"trace":true,"links":true,"shards":4}`)
	if code != http.StatusOK || src != "hit" {
		t.Fatalf("sharded resubmit: status %d cache %q, want 200 hit", code, src)
	}
	if !bytes.Equal(first, third) {
		t.Error("sharded resubmit body differs")
	}

	var doc ResultDoc
	if err := json.Unmarshal(first, &doc); err != nil {
		t.Fatalf("decode result doc: %v", err)
	}
	if doc.Error != "" {
		t.Fatalf("job failed: %s", doc.Error)
	}
	if !strings.Contains(doc.Stdout, "allreduce") {
		t.Errorf("stdout missing report: %q", doc.Stdout)
	}
	if len(doc.Artifacts) != 2 {
		t.Fatalf("got %d artifacts, want 2", len(doc.Artifacts))
	}

	// Artifact endpoint serves the raw bytes.
	resp, err := http.Get(base + "/v1/jobs/" + doc.Hash + "/artifacts/trace.json")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("artifact fetch: status %d", resp.StatusCode)
	}
	found := false
	for _, a := range doc.Artifacts {
		if a.Name == "trace.json" {
			found = true
			if !bytes.Equal(raw, a.Data) {
				t.Error("artifact endpoint bytes differ from result doc")
			}
		}
	}
	if !found {
		t.Error("result doc has no trace.json artifact")
	}
}

func TestSubmitRejectsBadSpec(t *testing.T) {
	_, base := newTestServer(t, Config{})
	for _, body := range []string{`not json`, `{"kind":"warp"}`, `{"kind":"bench","bogus":1}`,
		// Run, its virtual time overflows, and the panic would take
		// the whole server down.
		`{"kind":"bench","bench":"pingpong","ranks":2,"bytes":2305843009213693952}`} {
		if _, _, code := postJob(t, base, body); code != http.StatusBadRequest {
			t.Errorf("POST %q: status %d, want 400", body, code)
		}
	}
	if b, _, code := postJob(t, base, benchJob); code != http.StatusOK {
		t.Fatalf("valid job after the rejections: status %d: %s", code, b)
	}
}

// TestConcurrentSwarm hammers a small-cache server with a swarm of
// clients resubmitting a handful of distinct jobs, then checks every
// response for a given job is byte-identical and the cache actually
// cycled (hits and evictions both happened). Run under -race this is
// the server's thread-safety test.
func TestConcurrentSwarm(t *testing.T) {
	srv, base := newTestServer(t, Config{Workers: 4, QueueDepth: 64, CacheEntries: 2})
	jobs := []string{
		`{"kind":"bench","bench":"barrier","ranks":16}`,
		`{"kind":"bench","bench":"allreduce","ranks":16}`,
		`{"kind":"bench","bench":"bcast","ranks":16}`,
	}
	const clients, rounds = 8, 6
	bodies := make([][][]byte, len(jobs))
	for i := range bodies {
		bodies[i] = make([][]byte, 0, clients*rounds)
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				j := (c + r) % len(jobs)
				resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(jobs[j]))
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				b, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("client %d: status %d: %s", c, resp.StatusCode, b)
					return
				}
				mu.Lock()
				bodies[j] = append(bodies[j], b)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	for j := range jobs {
		for i := 1; i < len(bodies[j]); i++ {
			if !bytes.Equal(bodies[j][0], bodies[j][i]) {
				t.Fatalf("job %d: response %d differs from response 0", j, i)
			}
		}
	}
	st := srv.CurrentStats()
	if st.Cache.Evictions == 0 {
		t.Errorf("no evictions with cache=2 and 3 jobs cycling: %+v", st.Cache)
	}
	if st.Cache.Hits == 0 {
		t.Errorf("no cache hits across %d submissions", clients*rounds)
	}
	if st.Cache.Entries > 2 {
		t.Errorf("cache grew past capacity: %d entries", st.Cache.Entries)
	}
}

func TestRateLimit(t *testing.T) {
	_, base := newTestServer(t, Config{RatePerSec: 0.001, Burst: 2})
	for i := 0; i < 2; i++ {
		if _, _, code := postJob(t, base, benchJob); code != http.StatusOK {
			t.Fatalf("submit %d within burst: status %d", i, code)
		}
	}
	_, _, code := postJob(t, base, benchJob)
	if code != http.StatusTooManyRequests {
		t.Fatalf("submit past burst: status %d, want 429", code)
	}
}

func TestDrainRefusesNewWork(t *testing.T) {
	srv := New(Config{})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	if _, _, code := postJob(t, hs.URL, benchJob); code != http.StatusOK {
		t.Fatalf("pre-drain submit: status %d", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, _, code := postJob(t, hs.URL, `{"kind":"bench","bench":"barrier","ranks":8}`); code != http.StatusServiceUnavailable {
		t.Errorf("post-drain submit: status %d, want 503", code)
	}
	// Cached results stay readable after drain.
	if _, src, code := postJob(t, hs.URL, benchJob); code != http.StatusServiceUnavailable && src != "hit" {
		t.Errorf("post-drain cached submit: status %d cache %q", code, src)
	}
	resp, err := http.Get(hs.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(b), "draining") {
		t.Errorf("healthz after drain: %s", b)
	}
	// Drain is idempotent.
	if err := srv.Drain(ctx); err != nil {
		t.Errorf("second drain: %v", err)
	}
}

func TestEventsStream(t *testing.T) {
	_, base := newTestServer(t, Config{})
	body, _, code := postJob(t, base, benchJob)
	if code != http.StatusOK {
		t.Fatalf("submit: status %d", code)
	}
	var doc ResultDoc
	json.Unmarshal(body, &doc)
	resp, err := http.Get(base + "/v1/jobs/" + doc.Hash + "/events")
	if err != nil {
		t.Fatal(err)
	}
	stream, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("content type %q", ct)
	}
	if !strings.Contains(string(stream), "event: done") {
		t.Errorf("stream missing done event: %s", stream)
	}
}

func TestStatsShape(t *testing.T) {
	_, base := newTestServer(t, Config{})
	postJob(t, base, benchJob)
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	if st.Jobs.Completed != 1 {
		t.Errorf("completed = %d, want 1", st.Jobs.Completed)
	}
	if st.Cache.Entries != 1 {
		t.Errorf("cache entries = %d, want 1", st.Cache.Entries)
	}
}

const haloJob = `{"kind":"halo","grid_x":8,"grid_y":4,"words":512,"trace":true,"links":true}`

// TestSnapshotRestoreEquivalence is the server-level
// run-to-T-then-restore ≡ straight-run check on a HALO job: park a
// snapshot mid-run, resume it, and require the document to be
// byte-identical to a straight submission's — and to have warmed the
// job cache for later submissions.
func TestSnapshotRestoreEquivalence(t *testing.T) {
	_, baseA := newTestServer(t, Config{})
	straight, _, code := postJob(t, baseA, haloJob)
	if code != http.StatusOK {
		t.Fatalf("straight submit: status %d", code)
	}

	// A second, untouched server: snapshot first, resume, then submit.
	_, baseB := newTestServer(t, Config{})
	resp, err := http.Post(baseB+"/v1/snapshots", "application/json",
		strings.NewReader(fmt.Sprintf(`{"spec":%s,"at_us":50}`, haloJob)))
	if err != nil {
		t.Fatal(err)
	}
	snapBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("snapshot create: status %d: %s", resp.StatusCode, snapBody)
	}
	var info struct {
		ID     string `json:"id"`
		NowUs  int64  `json:"now_us"`
		Events uint64 `json:"events"`
		Done   bool   `json:"done"`
	}
	if err := json.Unmarshal(snapBody, &info); err != nil {
		t.Fatal(err)
	}
	if info.Done {
		t.Fatalf("snapshot completed at 50us; pick an earlier pause: %s", snapBody)
	}
	if info.Events == 0 {
		t.Error("snapshot at 50us fired no events")
	}

	resp, err = http.Post(baseB+"/v1/snapshots/"+info.ID+"/resume", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resumed, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resume: status %d: %s", resp.StatusCode, resumed)
	}
	if !bytes.Equal(resumed, straight) {
		t.Errorf("resumed document differs from straight run:\n--- straight\n%s\n--- resumed\n%s", straight, resumed)
	}

	// The resume warmed the cache: submitting the job now hits without
	// running anything.
	body, src, code := postJob(t, baseB, haloJob)
	if code != http.StatusOK || src != "hit" {
		t.Fatalf("post-resume submit: status %d cache %q, want 200 hit", code, src)
	}
	if !bytes.Equal(body, straight) {
		t.Error("post-resume submission body differs from straight run")
	}
}

func TestSnapshotForkAndDelete(t *testing.T) {
	_, base := newTestServer(t, Config{})
	resp, err := http.Post(base+"/v1/snapshots", "application/json",
		strings.NewReader(fmt.Sprintf(`{"spec":%s,"at_us":30}`, haloJob)))
	if err != nil {
		t.Fatal(err)
	}
	snapBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("snapshot create: status %d: %s", resp.StatusCode, snapBody)
	}
	var parent struct {
		ID    string `json:"id"`
		NowUs int64  `json:"now_us"`
	}
	json.Unmarshal(snapBody, &parent)

	// Fork a what-if branch with a larger payload, replayed to the
	// parent's pause point.
	fork := `{"spec":{"kind":"halo","grid_x":8,"grid_y":4,"words":2048,"trace":true,"links":true}}`
	resp, err = http.Post(base+"/v1/snapshots/"+parent.ID+"/fork", "application/json", strings.NewReader(fork))
	if err != nil {
		t.Fatal(err)
	}
	forkBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("fork: status %d: %s", resp.StatusCode, forkBody)
	}
	var child struct {
		ID    string `json:"id"`
		Hash  string `json:"hash"`
		NowUs int64  `json:"now_us"`
	}
	json.Unmarshal(forkBody, &child)
	if child.ID == parent.ID {
		t.Error("fork reused parent id")
	}

	// List shows both; delete the parent; list shows one.
	count := func() int {
		resp, err := http.Get(base + "/v1/snapshots")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var infos []json.RawMessage
		json.NewDecoder(resp.Body).Decode(&infos)
		return len(infos)
	}
	if n := count(); n != 2 {
		t.Fatalf("snapshot list: %d entries, want 2", n)
	}
	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/snapshots/"+parent.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	if n := count(); n != 1 {
		t.Fatalf("snapshot list after delete: %d entries, want 1", n)
	}
	// Resuming the fork still works and caches its own job.
	resp, err = http.Post(base+"/v1/snapshots/"+child.ID+"/resume", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resumed, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fork resume: status %d: %s", resp.StatusCode, resumed)
	}
	var doc ResultDoc
	json.Unmarshal(resumed, &doc)
	if doc.Hash != child.Hash {
		t.Errorf("fork resume hash %s, want %s", doc.Hash, child.Hash)
	}
}

func TestSnapshotBudget(t *testing.T) {
	_, base := newTestServer(t, Config{MaxSnapshots: 1})
	mk := func() int {
		resp, err := http.Post(base+"/v1/snapshots", "application/json",
			strings.NewReader(fmt.Sprintf(`{"spec":%s,"at_us":10}`, haloJob)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := mk(); code != http.StatusCreated {
		t.Fatalf("first snapshot: status %d", code)
	}
	if code := mk(); code != http.StatusTooManyRequests {
		t.Fatalf("second snapshot past budget: status %d, want 429", code)
	}
}
