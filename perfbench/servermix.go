package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"sync"
	"time"

	"bgpsim/internal/jobspec"
	"bgpsim/internal/server"
)

const (
	// hotSet is the number of specs set-up submits. In every block of
	// coldEvery requests one, at a seeded place, is a fresh cold spec
	// that misses and evicts; the rest draw from the hot set and should
	// hit.
	hotSet    = 32
	coldEvery = 5
	// clients is the number of closed-loop clients, each waiting for
	// its reply as a script calling the blocking POST /v1/jobs does.
	clients = 2
	// keptCold is the number of each client's first cold replies kept
	// for the output digest and the in-process comparison.
	keptCold = 8
)

// serverTemplates are the server's spec shapes: small HALO and bench
// jobs with trace and profile on. The hot set holds each shape equally
// often and each client's cold specs cycle through them, so every
// seed's request mix costs about the same.
var serverTemplates = []jobspec.Spec{
	{Kind: jobspec.KindHalo, GridX: 4, GridY: 4, Iterations: 2},
	{Kind: jobspec.KindHalo, GridX: 8, GridY: 4, Iterations: 1},
	{Kind: jobspec.KindHalo, GridX: 8, GridY: 8, Iterations: 1},
	{Kind: jobspec.KindHalo, GridX: 8, GridY: 8, Iterations: 2},
	{Kind: jobspec.KindBench, Bench: "allreduce", Ranks: 64},
	{Kind: jobspec.KindBench, Bench: "allreduce", Ranks: 128},
	{Kind: jobspec.KindBench, Bench: "bcast", Ranks: 128},
	{Kind: jobspec.KindBench, Bench: "barrier", Ranks: 32},
}

// serverSpec is template t with a seeded HALO protocol, made unique by
// u < 1<<16: u picks the halo size or payload through a fixed
// permutation of [0, 1<<16), so sizes do not trend upward as a run
// goes on.
func serverSpec(rng *rand.Rand, t, u int) jobspec.Spec {
	s := serverTemplates[t%len(serverTemplates)]
	s.Trace, s.Profile = true, true
	size := u * 40503 % (1 << 16)
	if s.Kind == jobspec.KindHalo {
		protos := []string{"isend", "sendrecv", "irecvsend", "persistent"}
		s.Words, s.Protocol = 100+size, protos[rng.IntN(len(protos))]
	} else {
		b := 8 + size
		s.Bytes = &b
	}
	return s
}

// bgpsimd is one running job server on a loopback listener, with
// bgpsimd's shipped defaults (2 workers, queue 8, cache 64).
type bgpsimd struct {
	srv    *server.Server
	hs     *http.Server
	url    string
	served chan error
	client *http.Client
}

func startServer() (*bgpsimd, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	b := &bgpsimd{
		srv:    server.New(server.Config{}),
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients, DisableCompression: true}},
	}
	b.hs = &http.Server{Handler: b.srv.Handler()}
	go func() { b.served <- b.hs.Serve(ln) }()
	return b, nil
}

// stop shuts the listener, drains the job server and waits for both.
func (b *bgpsimd) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	b.client.CloseIdleConnections()
	err := b.hs.Shutdown(ctx)
	if serr := <-b.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, b.srv.Drain(ctx))
}

// reply is one request's outcome.
type reply struct {
	status int
	cache  string // X-Bgpsimd-Cache: hit, miss or join
	body   []byte
	took   time.Duration
}

func (b *bgpsimd) post(raw []byte) (reply, error) {
	t := time.Now()
	resp, err := b.client.Post(b.url+"/v1/jobs", "application/json", bytes.NewReader(raw))
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return reply{resp.StatusCode, resp.Header.Get("X-Bgpsimd-Cache"), body, time.Since(t)}, err
}

func (b *bgpsimd) stats() (server.Stats, error) {
	var st server.Stats
	resp, err := b.client.Get(b.url + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// problem returns why a reply is not a good result document, or "".
func (r reply) problem() string {
	switch {
	case r.status != http.StatusOK:
		return fmt.Sprintf("status %d: %s", r.status, bytes.TrimSpace(r.body))
	case r.cache != "hit" && r.cache != "miss" && r.cache != "join":
		return fmt.Sprintf("X-Bgpsimd-Cache %q", r.cache)
	case bytes.Contains(r.body, []byte(`"error":"`)):
		// Quotes inside JSON strings are escaped, so this matches only
		// the document's error field.
		return "result document carries an error"
	}
	return ""
}

// serverSetup is one set-up of server-mixed: a started server that has
// answered every hot spec once.
type serverSetup struct {
	b       *bgpsimd
	hot     []jobspec.Spec
	hotRaw  [][]byte
	hotBody [][]byte
	hotTook []time.Duration
}

// client is one closed-loop client's stream and what it observed.
type client struct {
	rng             *rand.Rand
	next            int // next cold spec's unique number
	coldAt          int // the cold request's place in the current block
	hitMS, missMS   []float64
	refused         int
	missBytes       int
	cold            []jobspec.Spec
	coldBody        [][]byte
	coldTook        []time.Duration
	hits, requested int
}

// runServerMixed is the server-mixed workload: two closed-loop clients
// against the real bgpsimd handler over loopback HTTP, ~80% of
// requests from a hot set that hits the result cache, the rest fresh
// specs that miss and evict.
func runServerMixed(o options, rep *report) error {
	setup, err := timeSetup(rep, 5, fmt.Sprintf("start bgpsimd on 127.0.0.1:0, submit the %d-spec hot set one by one", hotSet), func() (*serverSetup, error) {
		b, err := startServer()
		if err != nil {
			return nil, err
		}
		s := &serverSetup{b: b, hotBody: make([][]byte, hotSet), hotTook: make([]time.Duration, hotSet)}
		rng := rand.New(rand.NewPCG(o.seed, 3))
		for i := 0; i < hotSet; i++ {
			spec := serverSpec(rng, i, i)
			raw, err := json.Marshal(spec)
			if err != nil {
				return nil, err
			}
			s.hot, s.hotRaw = append(s.hot, spec), append(s.hotRaw, raw)
		}
		for i, raw := range s.hotRaw {
			r, err := b.post(raw)
			if err == nil && r.problem() != "" {
				err = fmt.Errorf("hot spec %d: %s", i, r.problem())
			}
			if err != nil {
				return s, err
			}
			s.hotBody[i], s.hotTook[i] = r.body, r.took
		}
		return s, nil
	}, func(s *serverSetup) {
		if err := s.b.stop(); err != nil {
			rep.check(false, "stop set-up server: %v", err)
		}
	})
	if err != nil {
		return err
	}
	b := setup.b
	defer func() {
		if err := b.stop(); err != nil {
			rep.check(false, "stop server: %v", err)
		}
	}()
	before, err := b.stats()
	if err != nil {
		return err
	}

	cs := make([]*client, clients)
	for c := range cs {
		cs[c] = &client{rng: rand.New(rand.NewPCG(o.seed, uint64(10+c))), next: hotSet + c}
	}
	var mu sync.Mutex
	request := func(tr *tracer, cl *client, id int) {
		var raw []byte
		var spec jobspec.Spec
		hot := -1
		if cl.requested%coldEvery == 0 {
			cl.coldAt = cl.rng.IntN(coldEvery)
		}
		if cl.requested%coldEvery != cl.coldAt {
			hot = cl.rng.IntN(hotSet)
			raw = setup.hotRaw[hot]
		} else {
			if cl.next >= 1<<16 {
				mu.Lock()
				rep.job("cold specs exhausted: sizes would repeat")
				mu.Unlock()
				return
			}
			spec = serverSpec(cl.rng, cl.next/clients, cl.next)
			cl.next += clients
			raw, _ = json.Marshal(spec)
		}
		sp := tr.open("server.request", -1, id)
		r, err := b.post(raw)
		tr.close(sp)
		cl.requested++
		problem := ""
		switch {
		case err != nil:
			problem = err.Error()
		case r.status == http.StatusTooManyRequests || r.status == http.StatusServiceUnavailable:
			cl.refused++
			problem = fmt.Sprintf("refused: status %d", r.status)
		case r.problem() != "":
			problem = r.problem()
		case hot >= 0 && !bytes.Equal(r.body, setup.hotBody[hot]):
			problem = fmt.Sprintf("hot spec %d: %s body differs from its first miss body", hot, r.cache)
		}
		if problem == "" {
			ms := float64(r.took) / 1e6
			if r.cache == "hit" {
				cl.hits++
				cl.hitMS = append(cl.hitMS, ms)
			} else {
				cl.missMS = append(cl.missMS, ms)
				cl.missBytes += len(r.body)
			}
			if hot < 0 && len(cl.cold) < keptCold {
				cl.cold, cl.coldBody, cl.coldTook = append(cl.cold, spec), append(cl.coldBody, r.body), append(cl.coldTook, r.took)
			}
		}
		mu.Lock()
		rep.job(problem)
		mu.Unlock()
	}

	tr := newTracer()
	p := timed(o, rep, tr, func(tr *tracer, d time.Duration) phase {
		t0 := time.Now()
		var wg sync.WaitGroup
		// perSecond counts each client's replies by the second of the
		// phase they arrived in; the last, partial second is dropped.
		perSecond := make([][]int, clients)
		for c, cl := range cs {
			wg.Add(1)
			go func(c int, cl *client) {
				defer wg.Done()
				counts := make([]int, int(d/time.Second)+1)
				for id := c; time.Since(t0) < d; id += clients {
					request(tr, cl, id)
					if s := int(time.Since(t0) / time.Second); s < len(counts) {
						counts[s]++
					}
				}
				perSecond[c] = counts
			}(c, cl)
		}
		wg.Wait()
		p := phase{wall: time.Since(t0)}
		for s := 0; s < int(d/time.Second); s++ {
			p.rates = append(p.rates, float64(perSecond[0][s]+perSecond[1][s]))
		}
		for _, counts := range perSecond {
			for _, n := range counts {
				p.jobs += n
			}
		}
		return p
	})
	var hitMS, missMS []float64
	var hits, requested, refused, missBytes int
	for _, cl := range cs {
		hitMS, missMS = append(hitMS, cl.hitMS...), append(missMS, cl.missMS...)
		hits, requested, refused, missBytes = hits+cl.hits, requested+cl.requested, refused+cl.refused, missBytes+cl.missBytes
	}
	rep.e2e("jobs_per_s", p.rate(), "1/s",
		fmt.Sprintf("median of %d one-second windows (%d requests, %.3f s) from %d closed-loop clients, 1 in %d a cold spec, the rest from a %d-spec hot set; small HALO (4x4-8x8) and bench (32-128 ranks) specs, trace+profile on",
			len(p.rates), p.jobs, p.wall.Seconds(), clients, coldEvery, hotSet))
	latency := func(name, pop string, ms []float64, q float64) {
		beyond := len(ms) - int(q*float64(len(ms))+0.5)
		note("%-12s %10.4f ms  p%g of %d %s round trips (%d beyond)", name, quantile(ms, q), q*100, len(ms), pop, beyond)
		rep.check(beyond >= 10, "%s: only %d samples beyond p%g", name, beyond, q*100)
	}
	latency("hit_p50_ms", "hit", hitMS, 0.5)
	latency("hit_tail_ms", "hit", hitMS, 0.99)
	latency("miss_p50_ms", "miss", missMS, 0.5)
	latency("miss_tail_ms", "miss", missMS, 0.9)

	d := newDigest()
	for _, body := range setup.hotBody {
		d.add(body)
	}
	var specs []jobspec.Spec
	var bodies [][]byte
	var took []time.Duration
	specs, bodies, took = append(specs, setup.hot...), append(bodies, setup.hotBody...), append(took, setup.hotTook...)
	for _, cl := range cs {
		for _, body := range cl.coldBody {
			d.add(body)
		}
		specs, bodies, took = append(specs, cl.cold...), append(bodies, cl.coldBody...), append(took, cl.coldTook...)
	}
	checkDigest(o, rep, d.sum())

	if o.trace {
		after, err := b.stats()
		if err != nil {
			return err
		}
		rep.layer("server.hit_ratio", float64(hits)/float64(requested), "frac", fmt.Sprintf("%d hits of %d requests (X-Bgpsimd-Cache)", hits, requested))
		rep.layer("server.evictions", float64(after.Cache.Evictions-before.Cache.Evictions), "count", "cache evictions during the timed phase (/v1/stats)")
		rep.layer("server.refused", float64(refused), "count", "429/503 replies")
		rep.layer("server.doc_kb", float64(missBytes)/float64(max(len(missMS), 1))/1e3, "KB", fmt.Sprintf("mean result document of %d misses", len(missMS)))

		t, outs := decompose(tr, rep, specs, clients)
		st := reportLayers(rep, tr, t)
		var over []float64
		for i, out := range outs {
			if out.rr == nil {
				continue
			}
			doc := server.ResultDoc{Hash: out.rr.Hash, Spec: out.rr.Spec, Stdout: string(out.stdout), Stderr: string(out.stderr)}
			for _, a := range out.rr.Artifacts {
				doc.Artifacts = append(doc.Artifacts, server.ArtifactDoc{Name: a.Name, Data: a.Data})
			}
			want, err := json.Marshal(doc)
			rep.check(err == nil && bytes.Equal(want, bodies[i]), "spec %d: server document differs from an in-process jobspec.Run", i)
			over = append(over, float64(took[i]-out.took)/float64(took[i]))
		}
		rep.layer("server.overhead_frac", median(over), "frac",
			fmt.Sprintf("median over %d specs of (miss round trip - in-process jobspec.Run) / miss round trip", len(over)))
		total := st["job"].self + st["jobspec.prepare"].self + st["mpi.world"].self + st["mpi.run"].self + st["obs.export"].self
		rep.layer("obs.export_frac", float64(st["obs.export"].self)/float64(total), "frac",
			fmt.Sprintf("Profile+CriticalPath+WriteChromeTrace share of layer-path host time, %d exports, mean %.4g ms", st["obs.export"].n, st["obs.export"].meanMS()))
		if err := tr.write(".bench_build/spans", fmt.Sprintf("%s-%d.json", o.workload, o.seed)); err != nil {
			return err
		}
	}
	return reportMemory(rep)
}
