package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"memex"
)

const (
	// miningWorldSeed pins the mining world to the one the project's
	// performance notes were measured on: 50 users, ~21k visits, ~1.9k
	// pages. The run's seed only orders the requests.
	miningWorldSeed = 99
	// miningHeavyUsers is how many users get the whole-archive endpoints
	// (trails and both recommend methods, ~0.5 s each) every round; the
	// cheap endpoints go to every user every round. The heavy users are
	// the same in every run: Trails' cost differs by user, and a
	// seed-drawn subset would show that as run-to-run spread.
	miningHeavyUsers = 3
	// miningReopens is how many close/reopen cycles end each round.
	miningReopens = 3
	// discoverBudget bounds each focused crawl's fetches.
	discoverBudget = 40
)

// miner holds a mining run's state.
type miner struct {
	cfg     runConfig
	rep     *report
	w       *memex.World
	f       *facts
	now     time.Time
	order   []int64 // every user, in a seed-drawn order
	heavy   []int64
	rng     *rand.Rand
	folder  map[int64]string
	m       *memex.Memex
	dir     string
	counter *byteCounter
	lat     map[string]*samples // per-call figures by name
	themes  []memex.ThemeInfo   // the first rebuild's themes; every later one must equal them
	queries []query             // the searches of the server probe
	cache   cacheTally          // summed per round: each reopen starts a fresh cache
	pm      pressureMax
}

// runMining serves a read-only archive, built and reopened in set-up,
// to one HTTP client running a closed loop: the whole-archive endpoints
// for the heavy users, the cheap per-user endpoints for every user, then
// close/reopen cycles, retraining and two theme rebuilds. Rounds repeat
// until the run's time is up; the seed orders the requests.
func runMining(cfg runConfig) (*report, error) {
	mn := &miner{cfg: cfg, rep: newReport(), counter: newByteCounter(),
		lat: map[string]*samples{}, folder: map[int64]string{}}
	setups := &setupTimer{setup: mn.setup, undo: releaser(&mn.m, &mn.dir)}
	defer setups.undo()
	if err := setups.first(); err != nil {
		return nil, err
	}
	mn.rng = rand.New(rand.NewSource(cfg.seed))
	mn.order = shuffledUsers(mn.w, mn.rng)
	for i := 0; i < miningHeavyUsers; i++ {
		mn.heavy = append(mn.heavy, mn.w.Trace.Users[(2*i+1)*len(mn.w.Trace.Users)/(2*miningHeavyUsers)].ID)
	}

	cost := startCost(&mn.rep.acct)
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < cfg.seconds; round++ {
		if err := mn.round(); err != nil {
			return nil, err
		}
		if err := mn.cycle(); err != nil {
			return nil, err
		}
	}
	measured := time.Since(start)
	rep := mn.rep
	if cfg.tr.on {
		cost.report(rep)
	}
	rep.setE2E("heap_inuse_mb", heapInuseMiB(), "MiB")
	kinds := map[string]*samples{}
	for _, name := range []string{"trails", "recommend", "recommend_url", "profile", "usage", "discover", "themes_rebuild", "reopen"} {
		kinds[name] = mn.samples(name)
	}
	rep.setLatency(kinds)
	st := mn.m.Status()
	// The archive is closed for good here; the set-ups that follow build
	// archives of their own.
	err := mn.m.Close()
	mn.m = nil
	if err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	rep.setDisk(mn.dir, mn.f.visits)

	if cfg.tr.on {
		rep.setLayer("core.pages_fetched", float64(st.PagesFetched), "count")
		rep.setLayer("core.pages_indexed", float64(st.PagesIndexed), "count")
		rep.setLayer("core.drain_s", median(cfg.tr.durations("core.drain"))/1000, "s")
		mn.cache.report(rep, rep.acct.attempted-cost.ops)
		mn.pm.report(rep)
		for _, op := range []string{"trails", "recommend", "recommend_url", "profile", "usage", "discover"} {
			rep.setDetail("core.cache.misses_per_req."+op, mn.samples("misses."+op).quantile(0.5), "count")
			rep.setDetail("core."+op+"_ms", median(cfg.tr.durations("core."+op)), "ms")
			rep.setDetail("core."+op+"_alloc_kb", mn.samples("alloc."+op).quantile(0.5), "KiB")
		}
		// Both recommend methods share one route, so one figure covers them.
		for _, p := range []string{"trails", "recommend", "profile", "usage", "discover"} {
			if b, ok := mn.counter.perReply("/api/" + p); ok {
				rep.setDetail("server.resp_bytes."+p, b, "B")
			}
		}
		rep.setDetail("core.rebuild_themes_s", median(cfg.tr.durations("core.rebuild_themes"))/1000, "s")
		rep.setDetail("core.retrain_s", median(cfg.tr.durations("core.retrain"))/1000, "s")
		addTraceOverhead(cfg.tr, rep, measured)
		if err := probeArchive(cfg, rep, mn.dir, mn.w, mn.now, archivedPages(mn.f), mn.queries); err != nil {
			return nil, err
		}
	}
	if err := setups.rest(rep); err != nil {
		return nil, err
	}
	return rep, nil
}

func (mn *miner) samples(name string) *samples {
	s := mn.lat[name]
	if s == nil {
		s = &samples{}
		mn.lat[name] = s
	}
	return s
}

// setup builds the archive: replay the trace, drain, train, run one
// focused crawl per user (so that the crawls of the measured phase find
// their frontier archived and fetch nothing), close, reopen, retrain and
// build the themes.
func (mn *miner) setup(i int) error {
	mn.w = memex.GenerateWorld(memex.WorldConfig{Seed: miningWorldSeed})
	evs := traceEvents(mn.w, nil)
	mn.f = newFacts()
	for _, e := range evs {
		mn.f.add(e)
	}
	mn.now = traceEnd(evs)
	mn.queries = fixedQueries(mn.w, evs, rand.New(rand.NewSource(mn.cfg.seed)), 8)
	for _, u := range mn.w.Trace.Users {
		mn.folder[u.ID] = userFolder(mn.w, u.ID)
	}
	dir, err := workDir(mn.cfg.root, fmt.Sprintf("mining-%d", i))
	if err != nil {
		return err
	}
	mn.dir = dir
	m, err := openEngine(dir, mn.w, mn.now)
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}
	if err := replay(m, mn.w, evs); err != nil {
		m.Close()
		return err
	}
	m.DrainBackground()
	m.RetrainClassifiers()
	for _, u := range mn.w.Trace.Users {
		m.Discover(u.ID, mn.folder[u.ID], discoverBudget, searchK)
	}
	m.DrainBackground()
	if err := m.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	if mn.m, err = openEngine(dir, mn.w, mn.now); err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	mn.m.RetrainClassifiers()
	mn.m.RebuildThemes()
	return nil
}

// call times one HTTP request and, in a traced run, records the cache
// misses it caused, then repeats it as a direct engine call with the
// same arguments and records that call's allocation.
func (mn *miner) call(op string, httpCall func() error, direct func()) {
	tr := mn.cfg.tr
	req := tr.newID()
	var c0 uint64
	if tr.on {
		c0 = mn.m.Status().Cache.Misses
	}
	var err error
	d := tr.timed("http."+op, 0, req, func(int64) { err = httpCall() })
	mn.samples(op).add(ms(d))
	mn.rep.acct.op(err)
	if !tr.on {
		return
	}
	mn.samples("misses." + op).add(float64(mn.m.Status().Cache.Misses - c0))
	mn.pm.sample(mn.m, true)
	_, a0 := memCounters()
	tr.timed("core."+op, 0, req, func(int64) { direct() })
	_, a1 := memCounters()
	mn.samples("alloc." + op).add(float64(a1-a0) / 1024)
}

// round runs one round of requests over HTTP.
func (mn *miner) round() error {
	srv, err := serve(mn.m.Handler())
	if err != nil {
		return err
	}
	defer srv.stop()
	cl, tr := newClient(srv.base, 1, mn.counter)
	defer tr.CloseIdleConnections()
	m, c, f := mn.m, mn.w.Corpus, mn.f
	st0 := m.Status()
	defer func() { mn.cache.add(st0, m.Status()) }()

	themes, err := cl.Themes()
	mn.rep.acct.op(err)
	mn.rng.Shuffle(len(mn.heavy), func(i, j int) { mn.heavy[i], mn.heavy[j] = mn.heavy[j], mn.heavy[i] })
	for _, u := range mn.heavy {
		folder := mn.folder[u]
		// Each whole-archive call starts on a collected heap, so where
		// the previous call left the collector does not shift its time.
		runtime.GC()
		mn.call("trails", func() error {
			tc, err := cl.Trails(u, folder, searchK)
			if err != nil {
				return err
			}
			return checkTrails(c, f, u, tc)
		}, func() { m.Trails(u, folder, searchK) })
		runtime.GC()
		mn.call("recommend", func() error {
			recs, err := cl.Recommend(u, searchK, "profile")
			if err != nil {
				return err
			}
			return checkRecommend(c, f, u, recs)
		}, func() { m.Recommend(u, searchK, true) })
		runtime.GC()
		mn.call("recommend_url", func() error {
			recs, err := cl.Recommend(u, searchK, "url")
			if err != nil {
				return err
			}
			return checkRecommend(c, f, u, recs)
		}, func() { m.Recommend(u, searchK, false) })
	}
	for _, u := range mn.order {
		folder := mn.folder[u]
		mn.call("profile", func() error {
			w, err := cl.Profile(u)
			if err != nil {
				return err
			}
			return checkProfile(u, w, themes)
		}, func() { m.Profile(u) })
		mn.call("usage", func() error {
			s, err := cl.Usage(u, time.Time{})
			if err != nil {
				return err
			}
			return checkUsage(u, s, f.visitsOf[u])
		}, func() { m.UsageBreakdown(u, time.Time{}) })
		mn.call("discover", func() error {
			found, err := cl.Discover(u, folder, discoverBudget, searchK)
			if err != nil {
				return err
			}
			return checkDiscover(c, u, found)
		}, func() { m.Discover(u, folder, discoverBudget, searchK) })
	}
	if mn.cfg.tr.on {
		mn.cfg.tr.timed("core.drain", 0, 0, func(int64) { m.DrainBackground() })
	}
	return nil
}

// cycle closes and reopens the archive a few times, retrains the
// classifiers and rebuilds the themes twice, checking both rebuilds
// against the first set of themes the run built.
func (mn *miner) cycle() error {
	tr := mn.cfg.tr
	// reopen_s times Open, the restart a user waits for; Close, whose
	// checkpoint fsync depends on the disk more than on the program, is
	// not timed.
	for i := 0; i < miningReopens; i++ {
		if err := mn.m.Close(); err != nil {
			return fmt.Errorf("close: %w", err)
		}
		runtime.GC()
		var err error
		d := tr.timed("reopen", 0, 0, func(int64) { mn.m, err = openEngine(mn.dir, mn.w, mn.now) })
		if err != nil {
			return fmt.Errorf("reopen: %w", err)
		}
		mn.samples("reopen").add(ms(d))
	}
	tr.timed("core.retrain", 0, 0, func(int64) { mn.m.RetrainClassifiers() })
	for i := 0; i < 2; i++ {
		runtime.GC()
		d := tr.timed("core.rebuild_themes", 0, 0, func(int64) { mn.m.RebuildThemes() })
		mn.samples("themes_rebuild").add(ms(d))
		th := mn.m.Themes()
		if mn.themes == nil {
			mn.themes = th
		}
		mn.rep.acct.op(checkSameThemes(mn.themes, th))
	}
	return nil
}

// archivedPages lists the pages the trace names, in id order.
func archivedPages(f *facts) []int64 {
	out := make([]int64, 0, len(f.archived))
	for p := range f.archived {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
