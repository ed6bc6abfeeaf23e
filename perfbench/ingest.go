package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"memex"
	"memex/internal/sim"
)

const (
	// ingestUsers sizes the ingest community: about 160k visits whose
	// archive (~64 MB data.db) is four times the kvstore's 16 MiB
	// buffer pool, and whose import spans a few of the version-gc
	// demon's 2 s fold ticks.
	ingestUsers = 400
	// ingestBatch is how many events are sent before the queue depth is
	// looked at again. It is a quarter of the 4096-event queue, and a
	// batch is only sent while the queue has room for all of it, so the
	// drop-oldest queue never sheds.
	ingestBatch = 1024
	// searchK is the result count asked of every search.
	searchK = 10
)

// query is one fixed search: a user and two words from a page the user
// visited.
type query struct {
	user int64
	q    string
}

// runIngest imports a whole synthetic community, in trace order, from
// one goroutine through the embedded API into a fresh archive, and
// repeats that round until the run's time is up. Each round waits for
// the background fetch/index/classify pipeline to drain and then checks
// the archive, closes it, reopens it and checks it again.
func runIngest(cfg runConfig) (*report, error) {
	rep := newReport()
	// Set-up generates the community and opens a fresh archive with its
	// users registered, the state an import starts from. That archive
	// holds no events, so its clock is pinned to the trace's first
	// instant.
	var w *memex.World
	var m *memex.Memex
	var dir string
	setups := &setupTimer{setup: func(i int) error {
		w = memex.GenerateWorld(memex.WorldConfig{Seed: cfg.seed, Surf: sim.Config{Users: ingestUsers}})
		var err error
		if dir, err = workDir(cfg.root, fmt.Sprintf("ingest-setup-%d", i)); err != nil {
			return err
		}
		if m, err = openEngine(dir, w, w.Trace.Cfg.Start); err != nil {
			return fmt.Errorf("open: %w", err)
		}
		return registerUsers(m, w)
	}, undo: releaser(&m, &dir)}
	defer setups.undo()
	if err := setups.first(); err != nil {
		return nil, err
	}
	// The rounds import into archives of their own.
	if err := setups.undo(); err != nil {
		return nil, err
	}
	evs := traceEvents(w, nil)
	f := newFacts()
	for _, e := range evs {
		f.add(e)
	}
	now := traceEnd(evs)
	queries := fixedQueries(w, evs, rand.New(rand.NewSource(cfg.seed)), 8)

	// Throughput and CPU are totals over all rounds, which averages over
	// where the fold ticks land in each round.
	var busy, cpu time.Duration
	var disks, heaps, drains []float64
	var visitLat, batchLat samples
	var pm pressureMax
	var cache cacheTally
	var probeDir string
	cost := startCost(&rep.acct)
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < cfg.seconds; round++ {
		dir, err := workDir(cfg.root, fmt.Sprintf("ingest-%d", round))
		if err != nil {
			return nil, err
		}
		m, err := openEngine(dir, w, now)
		if err != nil {
			return nil, fmt.Errorf("open: %w", err)
		}
		// One round gives ~160k visit spans; later rounds' visits are not
		// recorded, which keeps the trace file and the run's memory small.
		visitTr := cfg.tr
		if round > 0 {
			visitTr = newTracer(false)
		}
		runtime.GC()
		st0 := m.Status()
		cpu0, t0 := cpuTime(), time.Now()
		rep.acct.op(registerUsers(m, w))
		for i := 0; i < len(evs); i += ingestBatch {
			// A batch's time runs from the wait for queue room to its
			// last ack, so its median is the pipeline's pace.
			tb := time.Now()
			for {
				p := m.Pressure()
				storeMax(&pm.depth, int64(p.QueueDepth))
				storeMax(&pm.lag, int64(p.FoldLag))
				if p.QueueDepth+ingestBatch <= p.QueueCap {
					break
				}
				time.Sleep(time.Millisecond)
			}
			if cfg.tr.on && (i/ingestBatch)%8 == 0 {
				storeMax(&pm.layers, int64(m.Status().Version.Layers))
			}
			for _, e := range evs[i:min(i+ingestBatch, len(evs))] {
				if !e.visit {
					rep.acct.op(send(m, e))
					continue
				}
				var err error
				d := visitTr.timed("core.record_visit", 0, 0, func(int64) { err = send(m, e) })
				visitLat.add(ms(d))
				rep.acct.op(err)
			}
			batchLat.add(ms(time.Since(tb)))
		}
		tAck := time.Now()
		cfg.tr.timed("core.drain", 0, 0, func(int64) { m.DrainBackground() })
		tDone := time.Now()
		cpu += cpuTime() - cpu0
		busy += tDone.Sub(t0)
		drains = append(drains, tDone.Sub(tAck).Seconds())

		st := m.Status()
		cache.add(st0, st)
		if st.EventsDropped > 0 {
			rep.acct.fail(int64(st.EventsDropped), fmt.Sprintf("ingest: %d events shed", st.EventsDropped))
		}
		rep.acct.op(checkIngest(st, f))
		if round == 0 {
			rep.setLayer("core.pages_fetched", float64(st.PagesFetched), "count")
			rep.setLayer("core.pages_indexed", float64(st.PagesIndexed), "count")
		}
		before := runQueries(m, queries)
		if err := m.Close(); err != nil {
			return nil, fmt.Errorf("close: %w", err)
		}
		disks = append(disks, float64(fileSize(dir, "data.db")+fileSize(dir, "wal.log"))/float64(f.visits))

		if m, err = openEngine(dir, w, now); err != nil {
			return nil, fmt.Errorf("reopen: %w", err)
		}
		after := runQueries(m, queries)
		rep.acct.op(checkSameAnswers(st.PagesIndexed, m.Status().PagesIndexed, before, after))
		// The heap of the reopened archive at rest: the version store's
		// unfolded layers, which depend on where the last fold tick
		// landed, are on disk by now.
		heaps = append(heaps, heapInuseMiB())
		if err := m.Close(); err != nil {
			return nil, fmt.Errorf("close: %w", err)
		}
		// A traced run keeps the first round's archive for the layer
		// probes, which run after the measured phase.
		if cfg.tr.on && round == 0 {
			probeDir = dir
		} else if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	measured := time.Since(start)
	rounds := float64(len(drains))
	visits := rounds * float64(f.visits)

	rep.setLatency(map[string]*samples{"visit": &visitLat, "batch": &batchLat})
	rep.setE2E("disk_bytes_per_visit", median(disks), "B")
	rep.setE2E("heap_inuse_mb", median(heaps), "MiB")
	rep.setDetail("visits_per_s", visits/busy.Seconds(), "1/s")
	rep.setDetail("cpu_us_per_visit", float64(cpu.Microseconds())/visits, "us")

	if cfg.tr.on {
		cost.report(rep)
		cache.report(rep, rep.acct.attempted-cost.ops)
		pm.report(rep)
		rep.setLayer("core.drain_s", median(drains), "s")
		rep.setDetail("core.record_visit_ms", median(cfg.tr.durations("core.record_visit")), "ms")
		rep.setDetail("visit_p99_ms", visitLat.quantile(0.99), "ms")
		addTraceOverhead(cfg.tr, rep, measured)
		if err := probeArchive(cfg, rep, probeDir, w, now, archivedPages(f), queries); err != nil {
			return nil, err
		}
	}
	if err := setups.rest(rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// fixedQueries draws n recall queries from pages users visited.
func fixedQueries(w *memex.World, evs []event, rng *rand.Rand, n int) []query {
	var out []query
	for len(out) < n {
		e := evs[rng.Intn(len(evs))]
		if !e.visit {
			continue
		}
		if q := recallQuery(rng, w.Corpus.Page(e.page).Text); q != "" {
			out = append(out, query{e.user, q})
		}
	}
	return out
}

func runQueries(m *memex.Memex, qs []query) [][]memex.PageInfo {
	out := make([][]memex.PageInfo, len(qs))
	for i, q := range qs {
		out[i] = m.Search(q.user, q.q, searchK)
	}
	return out
}

// addTraceOverhead reports how many spans the traced run recorded and
// what recording them cost, as a share of the measured phase.
func addTraceOverhead(tr *tracer, rep *report, measured time.Duration) {
	tr.mu.Lock()
	n := len(tr.spans)
	tr.mu.Unlock()
	cost := spanCost(100000)
	rep.setLayer("trace.spans", float64(n), "count")
	rep.setLayer("trace.overhead_pct", 100*float64(cost)*float64(n)/float64(measured), "%")
}
