package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bwpart/internal/exper"
	"bwpart/internal/serve"
	"bwpart/internal/workload"
)

// hitTarget is the fewest repeat reads a run times: hit_p99_ms needs 1000
// to leave ten beyond it.
const hitTarget = 1100

// fixedMisses is how many of the sweeper's misses, in plan order, form the
// fixed cell set of serve_mixed. Every run reaches it (it is missTarget),
// so its simulated statistics repeat exactly for a seed.
const fixedMisses = missTarget

// probeEvery is the reader's host-probe cadence.
const probeEvery = 250 * time.Millisecond

// serveSetups is how many times serve_mixed starts server B. A start takes
// well under a millisecond, so the median needs more of them than the
// direct workloads' set-ups.
const serveSetups = 15

// daemon is one serve.Server behind a loopback listener.
type daemon struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	client *http.Client
	served chan error

	stopOnce sync.Once
	stopErr  error
}

// startDaemon opens the checkpoint directory, builds the server (replaying
// its journal) and serves it until the first /healthz answers 200. With a
// tracer, a middleware records one span per request around Handler().
func startDaemon(dir string, tr *tracer) (d *daemon, newDur time.Duration, err error) {
	start := time.Now()
	store, err := exper.NewCheckpointStore(dir)
	if err != nil {
		return nil, 0, err
	}
	cfg := quickConfig(1)
	cfg.Checkpoint = store
	srv, err := serve.New(serve.Options{Exper: cfg})
	if err != nil {
		return nil, 0, err
	}
	newDur = time.Since(start)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Drain(context.Background())
		return nil, 0, err
	}
	h := srv.Handler()
	if tr != nil {
		h = tracedHandler(h, tr)
	}
	d = &daemon{
		srv:    srv,
		hs:     &http.Server{Handler: h},
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Timeout: 120 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
		served: make(chan error, 1),
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	for {
		resp, err := d.client.Get(d.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, newDur, nil
			}
		}
		if time.Since(start) > 30*time.Second {
			d.stop()
			return nil, 0, fmt.Errorf("daemon not healthy after 30s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains accepted jobs, closes the listener and waits for both. Only
// the first call does the work; later calls return its error.
func (d *daemon) stop() error {
	d.stopOnce.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		derr := d.srv.Drain(ctx)
		serr := d.hs.Shutdown(ctx)
		<-d.served
		d.client.CloseIdleConnections()
		d.stopErr = derr
		if derr == nil {
			d.stopErr = serr
		}
	})
	return d.stopErr
}

// tracedHandler records the handler's span. The client's request and span
// IDs arrive in headers, so the two sides of a request share its ID.
func tracedHandler(h http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id, _ := strconv.ParseInt(req.Header.Get("X-Bench-Req"), 10, 64)
		parent, _ := strconv.ParseInt(req.Header.Get("X-Bench-Span"), 10, 64)
		sp := tr.begin(layerServe, req.URL.Path, parent, id)
		h.ServeHTTP(w, req)
		tr.end(sp)
	})
}

// do sends one request and returns the body and the client-side latency
// (until the body is read).
func (d *daemon) do(method, path, client string, body []byte, reqID int64, sp *span) ([]byte, time.Duration, error) {
	req, err := http.NewRequest(method, d.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("X-Client-ID", client)
	if sp != nil {
		req.Header.Set("X-Bench-Req", strconv.FormatInt(reqID, 10))
		req.Header.Set("X-Bench-Span", strconv.FormatInt(sp.ID, 10))
	}
	start := time.Now()
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return nil, lat, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, lat, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(data)))
	}
	return data, lat, nil
}

// mix resolves one cell through POST /v1/mix.
func (d *daemon) mix(c cell, client string, reqID int64, sp *span) (*exper.MixRun, time.Duration, error) {
	body, err := json.Marshal(serve.MixRequest{Mix: c.Mix, Scheme: c.Scheme, Scale: c.Scale})
	if err != nil {
		return nil, 0, err
	}
	data, lat, err := d.do(http.MethodPost, "/v1/mix", client, body, reqID, sp)
	if err != nil {
		return nil, lat, err
	}
	var run exper.MixRun
	if err := json.Unmarshal(data, &run); err != nil {
		return nil, lat, fmt.Errorf("decoding %s: %w", c.key(), err)
	}
	return &run, lat, nil
}

// prepareDisk is the untimed first life of the daemon: server A runs the
// on-disk set as one /v1/grid job per mix, which writes checkpoints and
// journal records, and drains.
func prepareDisk(r *run, dir string, disk []cell) error {
	a, _, err := startDaemon(dir, nil)
	if err != nil {
		return err
	}
	var mixes []string
	seen := make(map[string]bool)
	for _, c := range disk {
		if !seen[c.Mix] {
			seen[c.Mix] = true
			mixes = append(mixes, c.Mix)
		}
	}
	for _, m := range mixes {
		body, _ := json.Marshal(serve.GridRequest{Mixes: []string{m}, Schemes: allSchemes()})
		data, _, err := a.do(http.MethodPost, "/v1/grid", "prepare", body, 0, nil)
		if err != nil {
			a.stop()
			return err
		}
		var acc serve.GridAccepted
		if err := json.Unmarshal(data, &acc); err != nil {
			a.stop()
			return err
		}
		snap, err := a.await(acc.StatusURL)
		if err != nil {
			a.stop()
			return err
		}
		for _, run := range snap.Results {
			if key := cellKey(1, run.Mix.Name, run.Scheme); !r.dig.check(key, run.Result) {
				r.fail("%s: digest mismatch", key)
			}
		}
	}
	return a.stop()
}

// await polls a grid job until it is terminal.
func (d *daemon) await(statusURL string) (*serve.JobSnapshot, error) {
	for {
		data, _, err := d.do(http.MethodGet, statusURL, "prepare", nil, 0, nil)
		if err != nil {
			return nil, err
		}
		var snap serve.JobSnapshot
		if err := json.Unmarshal(data, &snap); err != nil {
			return nil, err
		}
		if snap.State.Terminal() {
			if snap.State != serve.JobDone {
				return nil, fmt.Errorf("job %s %s: %s", snap.ID, snap.State, snap.Error)
			}
			return &snap, nil
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// runServe restarts sweepd over a checkpoint directory and times a reader
// (repeat reads of the on-disk set, plus /metrics scrapes) beside a sweeper
// (fresh cells, each a simulation and a checkpoint write). Both clients
// wait for each reply, and the server has as many workers as clients.
func runServe(r *run) error {
	plan := newServePlan(r.seed)
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(".bench_build", "serve-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := prepareDisk(r, dir, plan.Disk); err != nil {
		return fmt.Errorf("preparing the on-disk set: %w", err)
	}

	var d *daemon
	for i := 0; i < serveSetups; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return err
			}
		}
		root := r.tr.begin(layerBench, "setup", 0, 0)
		start := time.Now()
		var newDur time.Duration
		d, newDur, err = startDaemon(dir, r.tr)
		if err != nil {
			return err
		}
		r.setups = append(r.setups, time.Since(start).Seconds())
		r.serveNew = append(r.serveNew, newDur.Seconds())
		r.tr.end(root)
	}
	defer d.stop()

	// Untimed: profile every benchmark at both sweeper scales.
	for _, c := range plan.Prime {
		run, _, err := d.mix(c, "sweeper", 0, nil)
		if err != nil {
			return fmt.Errorf("priming: %w", err)
		}
		if !r.dig.check(c.key(), run.Result) {
			r.fail("%s: digest mismatch", c.key())
		}
	}

	before := d.srv.Obs().Snapshot()
	runtime.ReadMemStats(&r.memA)
	cl := &clients{r: r, d: d, plan: plan, stop: make(chan struct{})}
	start := time.Now()
	cl.wg.Add(2)
	go cl.sweep()
	go cl.read()
	var sampler sync.WaitGroup
	if r.tr != nil {
		sampler.Add(1)
		go func() {
			defer sampler.Done()
			cl.sampleQueue()
		}()
	}
	for {
		time.Sleep(10 * time.Millisecond)
		el := time.Since(start)
		enough := cl.misses.Load() >= missTarget && cl.hits.Load() >= hitTarget && cl.firsts.Load() >= int64(len(plan.Disk))
		if (el >= r.seconds && enough) || el >= 4*r.seconds || cl.sweepDone.Load() {
			break
		}
	}
	close(cl.stop)
	cl.wg.Wait()
	r.timed = time.Since(start)
	sampler.Wait()
	r.noteHeap()
	runtime.ReadMemStats(&r.memB)
	r.obs.add(d.srv.Obs().Snapshot(), 1)
	r.obs.add(before, -1)
	r.rejected = r.obs.rejected
	cl.merge()
	r.handlerSplit()

	// Untimed: the model error over the on-disk mixes, from the same
	// checkpoint files, through a direct runner.
	store, err := exper.NewCheckpointStore(dir)
	if err != nil {
		return err
	}
	cfg := quickConfig(1)
	cfg.Checkpoint = store
	runner, err := exper.NewRunner(cfg)
	if err != nil {
		return err
	}
	var mixes []workload.Mix
	for _, m := range readerMixes {
		mixes = append(mixes, mustMix(m))
	}
	if err := validate(r, runner, mixes); err != nil {
		return err
	}
	return d.stop()
}

// clients is the timed phase of serve_mixed: two closed-loop clients.
type clients struct {
	r    *run
	d    *daemon
	plan servePlan
	stop chan struct{}
	wg   sync.WaitGroup
	reqs atomic.Int64 // request IDs shared by both clients

	misses, hits, firsts atomic.Int64
	sweepDone            atomic.Bool

	// Per-client results, merged into the run once both have stopped.
	sweeper, reader clientResult
}

type clientResult struct {
	attempted int64
	failures  []string
	cells     int64
	lat       samples // sweeper: misses; reader: hits
	disk      samples // reader: first touches
	scrape    samples // reader: /metrics
	fresh     simTotals
	fixed     simTotals
}

func (cl *clients) stopped() bool {
	select {
	case <-cl.stop:
		return true
	default:
		return false
	}
}

// sweep requests the plan's fresh cells in order until told to stop.
func (cl *clients) sweep() {
	defer cl.wg.Done()
	res := &cl.sweeper
	for i, c := range cl.plan.Sweeper {
		if cl.stopped() {
			return
		}
		id := cl.reqs.Add(1)
		sp := cl.r.tr.begin(layerBench, "mix.miss", 0, id)
		res.attempted++
		run, lat, err := cl.d.mix(c, "sweeper", id, sp)
		cl.r.tr.end(sp)
		if err != nil {
			res.failures = append(res.failures, err.Error())
			continue
		}
		res.cells++
		res.lat.add(ms(lat))
		cl.misses.Add(1)
		if !cl.r.dig.check(c.key(), run.Result) {
			res.failures = append(res.failures, c.key()+": digest mismatch")
		}
		res.fresh.add(run.Result)
		if i < fixedMisses {
			res.fixed.add(run.Result)
			if i == fixedMisses-1 {
				cl.r.fixedQueue = cl.d.srv.Obs().Snapshot().Queue
			}
		}
	}
	cl.sweepDone.Store(true)
}

// read walks the on-disk set and scrapes /metrics until told to stop.
func (cl *clients) read() {
	defer cl.wg.Done()
	res := &cl.reader
	rd := cl.plan.reader()
	lastProbe := time.Now()
	for !cl.stopped() {
		// The reader pauses for a host probe every probeEvery; the sweeper
		// runs on, so the probe sees the host under the workload's load.
		if time.Since(lastProbe) >= probeEvery {
			cl.r.probe.run(probeSlice)
			lastProbe = time.Now()
		}
		q := rd.next()
		id := cl.reqs.Add(1)
		res.attempted++
		if q.Scrape {
			sp := cl.r.tr.begin(layerBench, "metrics", 0, id)
			data, lat, err := cl.d.do(http.MethodGet, "/metrics", "reader", nil, id, sp)
			cl.r.tr.end(sp)
			if err == nil && !bytes.Contains(data, []byte("bwpart_checkpoint_hits_total")) {
				err = fmt.Errorf("/metrics lacks bwpart_checkpoint_hits_total")
			}
			if err != nil {
				res.failures = append(res.failures, err.Error())
				continue
			}
			res.scrape.add(ms(lat))
			continue
		}
		name := "mix.hit"
		if q.First {
			name = "mix.disk"
		}
		sp := cl.r.tr.begin(layerBench, name, 0, id)
		run, lat, err := cl.d.mix(q.Cell, "reader", id, sp)
		cl.r.tr.end(sp)
		if err != nil {
			res.failures = append(res.failures, err.Error())
			continue
		}
		res.cells++
		if q.First {
			res.disk.add(ms(lat))
			cl.firsts.Add(1)
		} else {
			res.lat.add(ms(lat))
			cl.hits.Add(1)
		}
		if !cl.r.dig.check(q.Cell.key(), run.Result) {
			res.failures = append(res.failures, q.Cell.key()+": digest mismatch")
		}
	}
}

// sampleQueue records the server's job-queue depth every millisecond.
func (cl *clients) sampleQueue() {
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-cl.stop:
			return
		case <-tick.C:
			cl.r.queueDepth.add(float64(cl.d.srv.QueueDepth()))
		}
	}
}

// merge folds both clients' results into the run.
func (cl *clients) merge() {
	r := cl.r
	for _, res := range []*clientResult{&cl.sweeper, &cl.reader} {
		r.attempted += res.attempted
		r.cells += res.cells
		for _, f := range res.failures {
			r.fail("%s", f)
		}
	}
	r.miss = cl.sweeper.lat
	r.hit = cl.reader.lat
	r.disk = cl.reader.disk
	r.scrape = cl.reader.scrape
	r.fresh = cl.sweeper.fresh
	r.fixed = cl.sweeper.fixed
}

// handlerSplit derives, from the traced spans, the handler's share of each
// /v1/mix request and the transport remainder (client minus handler).
func (r *run) handlerSplit() {
	spans := r.tr.all()
	handler := make(map[int64]span) // by parent (client span) ID
	for _, s := range spans {
		if s.Layer == layerServe {
			handler[s.Parent] = s
		}
	}
	for _, c := range spans {
		h, ok := handler[c.ID]
		if c.Layer != layerBench || !ok {
			continue
		}
		switch c.Name {
		case "mix.hit":
			r.handlerHit.add(ms(h.dur()))
		case "mix.miss":
			r.handlerMis.add(ms(h.dur()))
		default:
			continue
		}
		r.transport.add(ms(c.dur() - h.dur()))
	}
}
