package main

import (
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"memex"
)

// metric is one figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a workload hands back: its end-to-end figures, the
// per-layer figures of a traced run, the figures only this workload
// has (printed in the table, not in the result line, which carries the
// same metrics on every workload), and the operation accounting.
type report struct {
	e2e    map[string]metric
	layer  map[string]metric
	detail map[string]metric
	acct   accounting
}

func newReport() *report {
	return &report{e2e: map[string]metric{}, layer: map[string]metric{}, detail: map[string]metric{}}
}

func (r *report) setE2E(name string, v float64, unit string)    { r.e2e[name] = metric{v, unit} }
func (r *report) setLayer(name string, v float64, unit string)  { r.layer[name] = metric{v, unit} }
func (r *report) setDetail(name string, v float64, unit string) { r.detail[name] = metric{v, unit} }

// setLatency sets p50_geomean_ms, the geometric mean of the medians of
// the workload's request kinds (in ms), and prints each median as a
// detail figure. A kind's change moves the figure by its share: a kind
// twice as slow out of n kinds moves it by a factor 2^(1/n), whatever
// that kind's own scale.
func (r *report) setLatency(kinds map[string]*samples) {
	logSum := 0.0
	for name, s := range kinds {
		p50 := s.quantile(0.5)
		r.setDetail(name+"_p50_ms", p50, "ms")
		logSum += math.Log(p50)
	}
	r.setE2E("p50_geomean_ms", math.Exp(logSum/float64(len(kinds))), "ms")
}

// setDisk sets disk_bytes_per_visit from a closed archive in dir.
func (r *report) setDisk(dir string, visits int64) {
	r.setE2E("disk_bytes_per_visit", float64(fileSize(dir, "data.db")+fileSize(dir, "wal.log"))/float64(visits), "B")
}

// phaseCost is what the process spent from the start of the measured
// phase: CPU, collections and allocation, and the operations attempted.
type phaseCost struct {
	cpu   time.Duration
	gcs   uint32
	alloc uint64
	ops   int64
}

func startCost(a *accounting) phaseCost {
	gcs, alloc := memCounters()
	a.mu.Lock()
	defer a.mu.Unlock()
	return phaseCost{cpuTime(), gcs, alloc, a.attempted}
}

// report sets the go.* figures per operation attempted since p.
func (p phaseCost) report(rep *report) {
	now := startCost(&rep.acct)
	ops := float64(now.ops - p.ops)
	rep.setLayer("go.cpu_ms_per_op", ms(now.cpu-p.cpu)/ops, "ms")
	rep.setLayer("go.gc_per_kop", float64(now.gcs-p.gcs)*1000/ops, "count")
	rep.setLayer("go.alloc_kb_per_op", float64(now.alloc-p.alloc)/1024/ops, "KiB")
}

// cacheTally sums the decoded-record cache's counters over the measured
// phase; every Open starts a fresh cache, so a workload adds each
// engine's share.
type cacheTally struct {
	hits, misses, evictions uint64
}

func (c *cacheTally) add(before, after memex.Stats) {
	b, a := before.Cache, after.Cache
	c.hits += a.Hits - b.Hits
	c.misses += a.Misses - b.Misses
	c.evictions += a.EvictedLRU - b.EvictedLRU + a.EvictedFloor - b.EvictedFloor
}

// report sets the core.cache.* figures, per operation attempted in ops.
// Hits and misses per operation together give the hit ratio and its
// base; a workload that makes no lookups reads 0 for both.
func (c *cacheTally) report(rep *report, ops int64) {
	rep.setLayer("core.cache.hits_per_op", float64(c.hits)/float64(ops), "count")
	rep.setLayer("core.cache.misses_per_op", float64(c.misses)/float64(ops), "count")
	rep.setLayer("core.cache.evictions", float64(c.evictions), "count")
}

// pressureMax keeps the largest event-queue depth, fold lag and version
// layer count sampled during the measured phase. Load goroutines share
// it.
type pressureMax struct {
	depth, lag, layers atomic.Int64
}

// sample reads the engine's pressure; withLayers also reads Status for
// the version store's layer count, which costs more.
func (p *pressureMax) sample(m *memex.Memex, withLayers bool) {
	pr := m.Pressure()
	storeMax(&p.depth, int64(pr.QueueDepth))
	storeMax(&p.lag, int64(pr.FoldLag))
	if withLayers {
		storeMax(&p.layers, int64(m.Status().Version.Layers))
	}
}

func (p *pressureMax) report(rep *report) {
	rep.setLayer("events.queue_depth_max", float64(p.depth.Load()), "count")
	rep.setLayer("version.fold_lag_max", float64(p.lag.Load()), "count")
	rep.setLayer("version.layers_max", float64(p.layers.Load()), "count")
}

func storeMax(a *atomic.Int64, v int64) {
	for {
		old := a.Load()
		if v <= old || a.CompareAndSwap(old, v) {
			return
		}
	}
}

// accounting counts the operations a run attempted and the ones that
// failed: an error or non-2xx reply, a shed event, an empty result where
// one is required, or an output that a check rejected. It is shared by
// the load goroutines, so it locks.
type accounting struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	wrong     int64 // failed because a check rejected the output
	notes     []string
}

// op records one operation; err is nil when it succeeded.
func (a *accounting) op(err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.attempted++
	if err == nil {
		return
	}
	a.failed++
	var ce checkError
	if asCheck(err, &ce) {
		a.wrong++
	}
	if len(a.notes) < 20 {
		a.notes = append(a.notes, err.Error())
	}
}

// fail counts n more failures of operations already counted as
// attempted, such as events the queue shed after acknowledging them.
func (a *accounting) fail(n int64, note string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.failed += n
	if len(a.notes) < 20 {
		a.notes = append(a.notes, note)
	}
}

// samples collects latencies in milliseconds (or any other figure) for
// one operation kind.
type samples struct {
	mu sync.Mutex
	v  []float64
}

func (s *samples) add(x float64) {
	s.mu.Lock()
	s.v = append(s.v, x)
	s.mu.Unlock()
}

// quantile returns the q-quantile by linear interpolation between the
// closest ranks (NaN when empty).
func (s *samples) quantile(q float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return quantile(s.v, q)
}

func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	pos := q * float64(len(c)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return c[lo] + (c[hi]-c[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return quantile(v, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user plus system CPU time. Steal time is in
// neither, so it does not inflate the figure on a shared host.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapInuseMiB runs a collection and returns the live heap in MiB.
func heapInuseMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

// memCounters reads the cumulative GC cycle count and allocated bytes.
func memCounters() (gcs uint32, alloc uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.NumGC, ms.TotalAlloc
}

// workDir makes a fresh directory under the run's scratch root.
func workDir(root, name string) (string, error) {
	dir := filepath.Join(root, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// openEngine opens the embedded engine with its clock pinned to the
// trace era, so recency decay (Trails' 7-day half-life) is computed
// against the trace and not against today's date.
func openEngine(dir string, w *memex.World, now time.Time) (*memex.Memex, error) {
	return memex.Open(memex.Config{
		Dir:    dir,
		Source: w.Source(),
		Now:    func() time.Time { return now },
	})
}

// registerUsers registers every user of w.
func registerUsers(m *memex.Memex, w *memex.World) error {
	for _, u := range w.Trace.Users {
		if err := m.RegisterUser(u.ID, u.Name); err != nil {
			return fmt.Errorf("register user %d: %w", u.ID, err)
		}
	}
	return nil
}

// send records one event through the embedded API.
func send(m *memex.Memex, e event) error {
	if e.visit {
		return m.RecordVisit(e.user, e.url, e.ref, e.at, e.privacy)
	}
	return m.AddBookmark(e.user, e.url, e.folder, e.at)
}

// replay registers every user of w, then sends evs in order.
func replay(m *memex.Memex, w *memex.World, evs []event) error {
	if err := registerUsers(m, w); err != nil {
		return err
	}
	for _, e := range evs {
		if err := send(m, e); err != nil {
			return fmt.Errorf("replay: %w", err)
		}
	}
	return nil
}

// fileSize returns the size of dir/name, 0 when it does not exist.
func fileSize(dir, name string) int64 {
	fi, err := os.Stat(filepath.Join(dir, name))
	if err != nil {
		return 0
	}
	return fi.Size()
}

// server serves one engine's HTTP handler on a loopback port.
type server struct {
	srv  *http.Server
	base string
	done chan struct{}
}

func serve(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{srv: &http.Server{Handler: h}, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed after stop
	}()
	return s, nil
}

// stop closes the listener and every connection and waits for Serve to
// return.
func (s *server) stop() {
	_ = s.srv.Close()
	<-s.done
}

// byteCounter tallies response bytes per request path.
type byteCounter struct {
	mu    sync.Mutex
	bytes map[string]int64
	count map[string]int64
}

func newByteCounter() *byteCounter {
	return &byteCounter{bytes: map[string]int64{}, count: map[string]int64{}}
}

func (b *byteCounter) add(path string, n int64) {
	b.mu.Lock()
	b.bytes[path] += n
	b.count[path]++
	b.mu.Unlock()
}

// perReply returns the mean reply size of one path.
func (b *byteCounter) perReply(path string) (float64, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.count[path] == 0 {
		return 0, false
	}
	return float64(b.bytes[path]) / float64(b.count[path]), true
}

// countingTransport wraps a transport and counts every reply body's
// bytes under its request path.
type countingTransport struct {
	rt      http.RoundTripper
	counter *byteCounter
}

func (t countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.rt.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &countingBody{rc: resp.Body, path: req.URL.Path, counter: t.counter}
	return resp, nil
}

type countingBody struct {
	rc      io.ReadCloser
	path    string
	n       int64
	counter *byteCounter
	closed  bool
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countingBody) Close() error {
	if !b.closed {
		b.closed = true
		// The client decodes the JSON and may leave a trailing newline
		// unread; drain it so the count is the whole reply.
		n, _ := io.Copy(io.Discard, b.rc)
		b.n += n
		b.counter.add(b.path, b.n)
	}
	return b.rc.Close()
}

// newClient returns the public client for base, on a transport that
// opens at most conns connections and counts reply bytes. The caller
// closes the transport's idle connections when it is done.
func newClient(base string, conns int, counter *byteCounter) (*memex.Client, *http.Transport) {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxConnsPerHost = conns
	tr.MaxIdleConnsPerHost = conns
	hc := &http.Client{Timeout: 60 * time.Second, Transport: countingTransport{rt: tr, counter: counter}}
	return memex.NewClient(base).WithHTTPClient(hc), tr
}
