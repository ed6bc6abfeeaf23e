package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"memex"
	"memex/internal/load"
	"memex/internal/webcorpus"
)

const (
	// browseRate is the open-loop request rate of the whole mix. The
	// tree sustains it with no backlog on two CPUs. Medians were lowest
	// and steadiest here when the rate was chosen (with an earlier mix):
	// at 200/s the server goes idle between requests and every request
	// pays a wake-up, and at 800/s requests queue.
	browseRate = 400
	// browsePagesPerLeaf widens the synthetic Web (2,880 pages instead
	// of 1,920) so that the robot finds pages nobody has visited.
	browsePagesPerLeaf = 60
	// browsePrivateShare is the share of pages whose visits are sent as
	// Private.
	browsePrivateShare = 0.10
	// browseScenario names the load harness's pinned traffic model
	// whose request shares the browse mix copies.
	browseScenario = "ci-small"
	// browseMixLen is the length of the repeating request pattern.
	browseMixLen = 60
)

// browseMix returns the request pattern, one letter per slot of the
// schedule: V a human visit, S a recall search, T a status read, R a
// robot visit. Its shares are the request rates of the load harness's
// pinned ci-small scenario (internal/load), the project's model of human
// sessions and robot crawls after "Access Patterns for Robots and Humans
// in Web Archives": Humans/HumanThink human actions a second,
// HumanSearchFrac of them searches; RobotBurst visits per robot per
// burst cycle of RobotBurst×RobotGap + RobotIdle; a status read every
// MonitorEvery. For ci-small that is 15 visits, 5 searches, 23.5 robot
// visits and 6.7 status reads a second, which come to 18 V, 6 S, 28 R
// and 8 T in 60 slots. The scenario's timing (think times, bursts) is
// not kept: the schedule sends the pattern at one fixed rate.
func browseMix() (string, error) {
	sc, ok := load.Lookup(browseScenario)
	if !ok || sc.HumanThink <= 0 || sc.MonitorEvery <= 0 {
		return "", fmt.Errorf("load scenario %q: not found or without humans and monitor", browseScenario)
	}
	human := float64(sc.Humans) / sc.HumanThink.Seconds()
	robotCycle := time.Duration(sc.RobotBurst)*sc.RobotGap + sc.RobotIdle
	rates := []float64{
		human * (1 - sc.HumanSearchFrac),
		human * sc.HumanSearchFrac,
		float64(sc.Robots*sc.RobotBurst) / robotCycle.Seconds(),
		1 / sc.MonitorEvery.Seconds(),
	}
	return interleave("VSRT", apportion(rates, browseMixLen)), nil
}

// apportion divides n slots in proportion to weights by largest
// remainders (ties go to the earlier weight).
func apportion(weights []float64, n int) []int {
	var total float64
	for _, w := range weights {
		total += w
	}
	counts := make([]int, len(weights))
	rest := make([]float64, len(weights))
	left := n
	for i, w := range weights {
		exact := w / total * float64(n)
		counts[i] = int(math.Floor(exact))
		rest[i] = exact - float64(counts[i])
		left -= counts[i]
	}
	order := make([]int, len(weights))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return rest[order[a]] > rest[order[b]] })
	for _, i := range order[:left] {
		counts[i]++
	}
	return counts
}

// interleave spreads counts[i] copies of kinds[i] evenly over one
// pattern by smooth weighted round robin.
func interleave(kinds string, counts []int) string {
	n := 0
	for _, c := range counts {
		n += c
	}
	credit := make([]int, len(counts))
	out := make([]byte, n)
	for j := range out {
		best := 0
		for i, c := range counts {
			credit[i] += c
			if credit[i] > credit[best] {
				best = i
			}
		}
		credit[best] -= n
		out[j] = kinds[best]
	}
	return string(out)
}

// slot is one scheduled request.
type slot struct {
	kind  byte
	ev    event // V and R
	user  int64 // S
	query string
}

// runBrowse archives the first two thirds of a community trace in
// set-up, then plays an open-loop schedule over HTTP at a fixed rate:
// the remaining visits (some Private), recall searches for words of
// pages each user visited, status reads and a robot crawl. Each request
// is timed from the instant it was due.
func runBrowse(cfg runConfig) (*report, error) {
	rep := newReport()
	mix, err := browseMix()
	if err != nil {
		return nil, err
	}
	var w *memex.World
	var m *memex.Memex
	var live []event
	var f *facts
	var now time.Time
	var dir string
	setups := &setupTimer{setup: func(i int) error {
		var err error
		if dir, err = workDir(cfg.root, fmt.Sprintf("browse-%d", i)); err != nil {
			return err
		}
		w, m, live, f, now, err = browseSetup(cfg, dir)
		return err
	}, undo: releaser(&m, &dir)}
	defer setups.undo()
	if err := setups.first(); err != nil {
		return nil, err
	}

	robot := int64(len(w.Trace.Users) + 1000)
	sched := browseSchedule(cfg, mix, w, f, live, robot, now)
	sent := int64(countKind(sched, 'V') + countKind(sched, 'R'))

	srv, err := serve(m.Handler())
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	counter := newByteCounter()
	cl, transport := newClient(srv.base, cfg.conns, counter)
	defer transport.CloseIdleConnections()
	if err := cl.Register(robot, "robot"); err != nil {
		return nil, fmt.Errorf("register robot: %w", err)
	}

	b := &browser{cfg: cfg, rep: rep, m: m, cl: cl, c: w.Corpus, seen: newTimeline(f, sched), lat: map[string]*samples{}}
	for _, k := range []string{"event", "search", "status", "late", "server.search", "server.event"} {
		b.lat[k] = &samples{}
	}
	runtime.GC()
	st0 := m.Status()
	cost := startCost(&rep.acct)
	interval := time.Second / browseRate
	start := time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	for wk := 0; wk < cfg.conns; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			for i := wk; i < len(sched); i += cfg.conns {
				due := start.Add(time.Duration(i) * interval)
				waitUntil(due)
				b.do(i, sched[i], due)
			}
		}(wk)
	}
	wg.Wait()
	end := time.Now()
	depth := m.Pressure().QueueDepth
	cfg.tr.timed("core.drain", 0, 0, func(int64) { m.DrainBackground() })
	st := m.Status()
	if st.EventsDropped > 0 {
		rep.acct.fail(int64(st.EventsDropped), fmt.Sprintf("browse: %d events shed", st.EventsDropped))
	}
	// The engine counts the visits logged since it opened, so set-up's
	// are not in the figure.
	if want := sent + b.dups.Load(); st.Visits != want {
		rep.acct.op(failf("browse: %d visits logged, %d sent", st.Visits, want))
	} else {
		rep.acct.op(nil)
	}
	rep.setE2E("heap_inuse_mb", heapInuseMiB(), "MiB")
	rep.setLatency(map[string]*samples{"event": b.lat["event"], "search": b.lat["search"], "status": b.lat["status"]})

	var queries []query
	if cfg.tr.on {
		cost.report(rep)
		var cache cacheTally
		cache.add(st0, st)
		cache.report(rep, rep.acct.attempted-cost.ops)
		b.pm.report(rep)
		rep.setLayer("core.drain_s", median(cfg.tr.durations("core.drain"))/1000, "s")
		rep.setLayer("core.pages_fetched", float64(st.PagesFetched), "count")
		rep.setLayer("core.pages_indexed", float64(st.PagesIndexed), "count")
		// Figures of the measured phase, under load; the server probe
		// after it measures the same layers at rest on every workload.
		rep.setDetail("bench.late_p99_ms", b.lat["late"].quantile(0.99), "ms")
		rep.setDetail("search_p99_ms", b.lat["search"].quantile(0.99), "ms")
		rep.setDetail("event_p99_ms", b.lat["event"].quantile(0.99), "ms")
		rep.setDetail("server.search_ms.loaded", b.lat["server.search"].quantile(0.5), "ms")
		rep.setDetail("server.event_ms.loaded", b.lat["server.event"].quantile(0.5), "ms")
		for _, op := range []string{"search", "record_visit", "status"} {
			rep.setDetail("core."+op+"_ms.loaded", median(cfg.tr.durations("core."+op)), "ms")
		}
		if v, ok := counter.perReply("/api/event"); ok {
			rep.setDetail("server.resp_bytes.event", v, "B")
		}
		rep.setDetail("events.queue_depth_end", float64(depth), "count")
		addTraceOverhead(cfg.tr, rep, end.Sub(start))
		for _, s := range sched {
			if s.kind == 'S' && len(queries) < 8 {
				queries = append(queries, query{s.user, s.query})
			}
		}
	}
	srv.stop()
	// The archive is closed for good here; the set-ups that follow build
	// archives of their own.
	err = m.Close()
	m = nil
	if err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	rep.setDisk(dir, f.visits+sent+b.dups.Load())
	if cfg.tr.on {
		if err := probeArchive(cfg, rep, dir, w, now, archivedPages(f), queries); err != nil {
			return nil, err
		}
	}
	if err := setups.rest(rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// browseSetup builds the world, archives the first two thirds of its
// trace through the embedded API, drains, and reopens the archive. It
// returns the visits left for the measured phase and the facts of what
// was archived.
func browseSetup(cfg runConfig, dir string) (*memex.World, *memex.Memex, []event, *facts, time.Time, error) {
	w := memex.GenerateWorld(memex.WorldConfig{Seed: cfg.seed, Web: webcorpus.Config{PagesPerLeaf: browsePagesPerLeaf}})
	rng := rand.New(rand.NewSource(cfg.seed))
	private := map[int64]bool{}
	for _, p := range w.Corpus.Pages {
		if rng.Float64() < browsePrivateShare {
			private[p.ID] = true
		}
	}
	evs := traceEvents(w, private)
	cut, seen := 0, 0
	for i, e := range evs {
		if e.visit {
			seen++
			if seen == 2*len(w.Trace.Visits)/3 {
				cut = i + 1
				break
			}
		}
	}
	var live []event
	for _, e := range evs[cut:] {
		if e.visit {
			live = append(live, e)
		}
	}
	f := newFacts()
	now := traceEnd(evs)
	m, err := openEngine(dir, w, now)
	if err != nil {
		return nil, nil, nil, nil, now, fmt.Errorf("open: %w", err)
	}
	fail := func(err error) (*memex.World, *memex.Memex, []event, *facts, time.Time, error) {
		m.Close()
		return nil, nil, nil, nil, now, err
	}
	if err := replay(m, w, evs[:cut]); err != nil {
		return fail(err)
	}
	for _, e := range evs[:cut] {
		f.add(e)
	}
	m.DrainBackground()
	if err := m.Close(); err != nil {
		return nil, nil, nil, nil, now, err
	}
	if m, err = openEngine(dir, w, now); err != nil {
		return nil, nil, nil, nil, now, fmt.Errorf("reopen: %w", err)
	}
	return w, m, live, f, now, nil
}

// browseSchedule lays out the run's requests. The human visits continue
// the trace (wrapping round if the run outlasts it); searches go to
// users in a seed-drawn round-robin, each for two words of a page that
// user visited before the run; the robot walks the pages nobody had
// visited by the end of set-up, in a seed-drawn order.
func browseSchedule(cfg runConfig, mix string, w *memex.World, f *facts, live []event, robot int64, now time.Time) []slot {
	rng := rand.New(rand.NewSource(cfg.seed + 1))
	users := shuffledUsers(w, rng)
	mine := map[int64][]int64{}
	for _, u := range users {
		for p := range f.visitedBy[u] {
			mine[u] = append(mine[u], p)
		}
		sort.Slice(mine[u], func(i, j int) bool { return mine[u][i] < mine[u][j] })
	}
	var unseen []int64
	for _, p := range w.Corpus.Pages {
		if !f.archived[p.ID] {
			unseen = append(unseen, p.ID)
		}
	}
	rng.Shuffle(len(unseen), func(i, j int) { unseen[i], unseen[j] = unseen[j], unseen[i] })

	n := int(cfg.seconds/time.Second) * browseRate
	out := make([]slot, n)
	var nv, ns, nr int
	for i := range out {
		s := slot{kind: mix[i%len(mix)]}
		switch s.kind {
		case 'V':
			s.ev = live[nv%len(live)]
			nv++
		case 'S':
			// A user whose pages hold too few topical words is
			// skipped for the next one.
			for s.query == "" {
				s.user = users[ns%len(users)]
				ns++
				pages := mine[s.user]
				for try := 0; try < 20 && s.query == "" && len(pages) > 0; try++ {
					s.query = recallQuery(rng, w.Corpus.Page(pages[rng.Intn(len(pages))]).Text)
				}
			}
		case 'R':
			p := unseen[nr%len(unseen)]
			nr++
			s.ev = event{visit: true, user: robot, page: p, url: w.Corpus.Page(p).URL, at: now, privacy: memex.Community}
		}
		out[i] = s
	}
	return out
}

// timeline tells what a browse search may find: the pages archived in
// set-up, plus the pages of the schedule's visits sent so far. A visit
// is marked sent just before its request goes out, so when a search
// reply arrives the timeline covers every visit the engine could have
// applied before it answered, and none sent after the reply.
type timeline struct {
	base      *facts
	community map[int64][]int           // page → slots of Community visits to it
	visits    map[int64]map[int64][]int // user → page → slots of the user's visits to it
	sent      []atomic.Bool             // by slot
}

func newTimeline(base *facts, sched []slot) *timeline {
	t := &timeline{base: base, community: map[int64][]int{}, visits: map[int64]map[int64][]int{},
		sent: make([]atomic.Bool, len(sched))}
	for i, s := range sched {
		if s.kind != 'V' && s.kind != 'R' {
			continue
		}
		e := s.ev
		if e.privacy == memex.Community {
			t.community[e.page] = append(t.community[e.page], i)
		}
		if t.visits[e.user] == nil {
			t.visits[e.user] = map[int64][]int{}
		}
		t.visits[e.user][e.page] = append(t.visits[e.user][e.page], i)
	}
	return t
}

func (t *timeline) markSent(i int) { t.sent[i].Store(true) }

func (t *timeline) visible(user, page int64) bool {
	return t.base.visible(user, page) || t.anySent(t.community[page]) || t.anySent(t.visits[user][page])
}

func (t *timeline) anySent(slots []int) bool {
	for _, i := range slots {
		if t.sent[i].Load() {
			return true
		}
	}
	return false
}

// waitUntil returns at due. A sleep can overshoot by a millisecond of
// timer slack, which would add the generator's own wake-up delay to every
// latency timed from the due instant; so it sleeps to just short of due
// and yields the processor until due.
func waitUntil(due time.Time) {
	if d := time.Until(due) - 1500*time.Microsecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
}

// browser runs the schedule's requests; its fields are shared by the
// load goroutines.
type browser struct {
	cfg  runConfig
	rep  *report
	m    *memex.Memex
	cl   *memex.Client
	c    *webcorpus.Corpus
	seen *timeline
	lat  map[string]*samples // fixed set of keys, filled before the run
	dups atomic.Int64        // visits a traced run repeated directly
	pm   pressureMax
}

// do sends one scheduled request and times it from its due instant. A
// traced run then repeats it as a direct engine call with the same
// arguments; the difference is the HTTP layer's share.
func (b *browser) do(i int, s slot, due time.Time) {
	tr := b.cfg.tr
	req := tr.newID()
	sent := time.Now()
	b.lat["late"].add(ms(sent.Sub(due)))
	var err error
	var name string
	var direct func()
	switch s.kind {
	case 'V', 'R':
		name = "event"
		e := s.ev
		b.seen.markSent(i)
		tr.timed("http.event", 0, req, func(int64) {
			err = b.cl.Visit(e.user, e.url, e.ref, e.at, privacyName(e.privacy))
		})
		direct = func() {
			var derr error
			tr.timed("core.record_visit", 0, req, func(int64) {
				derr = b.m.RecordVisit(e.user, e.url, e.ref, e.at, e.privacy)
			})
			b.rep.acct.op(derr)
			b.dups.Add(1)
		}
	case 'S':
		name = "search"
		var hits []memex.PageInfo
		tr.timed("http.search", 0, req, func(int64) { hits, err = b.cl.Search(s.user, s.query, searchK) })
		if err == nil {
			err = checkSearch(b.c, b.seen, s.user, s.query, searchK, hits)
		}
		direct = func() { tr.timed("core.search", 0, req, func(int64) { b.m.Search(s.user, s.query, searchK) }) }
	case 'T':
		name = "status"
		var st memex.Stats
		tr.timed("http.status", 0, req, func(int64) { st, err = b.cl.Status() })
		if err == nil && st.Visits == 0 {
			err = failf("status: no visits")
		}
		direct = func() { tr.timed("core.status", 0, req, func(int64) { b.m.Status() }) }
	}
	done := time.Now()
	b.lat[name].add(ms(done.Sub(due)))
	b.rep.acct.op(err)
	if !tr.on {
		return
	}
	b.pm.sample(b.m, s.kind == 'T')
	d0 := time.Now()
	direct()
	if k := "server." + name; b.lat[k] != nil {
		b.lat[k].add(ms(done.Sub(sent)) - ms(time.Since(d0)))
	}
}

// allocPerCall runs fn, which makes n calls, and returns the KiB
// allocated per call.
func allocPerCall(fn func(), n int) float64 {
	_, a0 := memCounters()
	fn()
	_, a1 := memCounters()
	return float64(a1-a0) / 1024 / float64(n)
}

func countKind(sched []slot, kind byte) int {
	n := 0
	for _, s := range sched {
		if s.kind == kind {
			n++
		}
	}
	return n
}

// privacyName is the wire form of a privacy mode.
func privacyName(p memex.Privacy) string {
	if p == memex.Private {
		return "private"
	}
	return "community"
}
