package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"memex"
	"memex/internal/events"
	"memex/internal/kvstore"
	"memex/internal/rdbms"
	"memex/internal/version"
)

// The probes below time calls into single layers from outside, through
// each package's exported functions, on a copy of a closed archive. They
// run only in traced runs.

// copyArchive copies the files of a closed archive into a fresh
// directory, so a probe cannot change the archive a workload goes on
// using.
func copyArchive(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// probeArchive runs every layer probe on the closed archive in dir,
// after the measured phase: it reopens the archive for the probes that
// need the engine (a DerivedView pass over pages cold and warm, the
// HTTP layer's share of the searches qs and of status reads), closes it,
// times the storage layers on a copy, and times the event queue at
// depth. pages are the archived pages; qs[0]'s user is the one whose
// visits the rdbms select reads.
func probeArchive(cfg runConfig, rep *report, dir string, w *memex.World, now time.Time, pages []int64, qs []query) error {
	m, err := openEngine(dir, w, now)
	if err != nil {
		return fmt.Errorf("probe open: %w", err)
	}
	probeView(cfg.tr, rep, m, pages)
	err = probeServer(cfg, rep, m, qs)
	if cerr := m.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := probeStorage(cfg, rep, dir, qs[0].user); err != nil {
		return err
	}
	probeQueue(cfg.tr, rep)
	return nil
}

// serverProbeRounds is how many times probeServer makes its requests.
const serverProbeRounds = 25

// probeServer serves m on loopback and makes, serverProbeRounds times,
// each search of qs and a status read over HTTP, each followed by the
// same call made directly on the engine. The HTTP call's time minus the
// direct call's is the server layer's share (handler, JSON, loopback
// and client).
func probeServer(cfg runConfig, rep *report, m *memex.Memex, qs []query) error {
	srv, err := serve(m.Handler())
	if err != nil {
		return err
	}
	defer srv.stop()
	counter := newByteCounter()
	cl, transport := newClient(srv.base, 1, counter)
	defer transport.CloseIdleConnections()
	tr := cfg.tr
	var httpSearch, coreSearch, httpStatus, coreStatus samples
	for r := 0; r < serverProbeRounds; r++ {
		for _, q := range qs {
			req := tr.newID()
			var err error
			h := tr.timed("probe.http.search", 0, req, func(int64) { _, err = cl.Search(q.user, q.q, searchK) })
			if err != nil {
				return fmt.Errorf("probe search: %w", err)
			}
			d := tr.timed("probe.core.search", 0, req, func(int64) { m.Search(q.user, q.q, searchK) })
			httpSearch.add(ms(h - d))
			coreSearch.add(ms(d))

			req = tr.newID()
			h = tr.timed("probe.http.status", 0, req, func(int64) { _, err = cl.Status() })
			if err != nil {
				return fmt.Errorf("probe status: %w", err)
			}
			d = tr.timed("probe.core.status", 0, req, func(int64) { m.Status() })
			httpStatus.add(ms(h - d))
			coreStatus.add(ms(d))
		}
	}
	rep.setLayer("server.search_ms", httpSearch.quantile(0.5), "ms")
	rep.setLayer("server.status_ms", httpStatus.quantile(0.5), "ms")
	rep.setLayer("core.search_ms", coreSearch.quantile(0.5), "ms")
	rep.setLayer("core.status_ms", coreStatus.quantile(0.5), "ms")
	if b, ok := counter.perReply("/api/search"); ok {
		rep.setLayer("server.resp_bytes.search", b, "B")
	}
	if b, ok := counter.perReply("/api/status"); ok {
		rep.setLayer("server.resp_bytes.status", b, "B")
	}
	rep.setLayer("core.search_alloc_kb", allocPerCall(func() {
		for _, q := range qs {
			m.Search(q.user, q.q, searchK)
		}
	}, len(qs)), "KiB")
	return nil
}

// probeStorage times the kvstore, version-store and rdbms layers on a
// copy of the closed archive in dir. user is the user whose indexed
// visits select is timed. Every timed call is a child span of one
// probe.storage span.
func probeStorage(cfg runConfig, rep *report, dir string, user int64) (err error) {
	cfg.tr.timed("probe.storage", 0, 0, func(root int64) { err = storageProbes(cfg, rep, dir, user, root) })
	return err
}

func storageProbes(cfg runConfig, rep *report, dir string, user int64, root int64) error {
	tr := cfg.tr
	probe := filepath.Join(cfg.root, "probe")
	if err := os.RemoveAll(probe); err != nil {
		return err
	}
	defer os.RemoveAll(probe)
	if err := copyArchive(dir, probe); err != nil {
		return fmt.Errorf("copy archive: %w", err)
	}
	rep.setLayer("kvstore.data_bytes", float64(fileSize(probe, "data.db")), "B")

	var kv *kvstore.Store
	var err error
	d := tr.timed("kvstore.open", root, root, func(int64) { kv, err = kvstore.Open(probe, kvstore.Options{Sync: kvstore.SyncGroup}) })
	if err != nil {
		return fmt.Errorf("kvstore open: %w", err)
	}
	rep.setLayer("kvstore.open_ms", ms(d), "ms")
	var keys [][]byte
	if err := kv.Scan(nil, nil, func(k, _ []byte) bool { keys = append(keys, k); return true }); err != nil {
		kv.Close()
		return fmt.Errorf("kvstore scan: %w", err)
	}
	if err := kv.Close(); err != nil {
		return fmt.Errorf("kvstore close: %w", err)
	}
	if len(keys) == 0 {
		return fmt.Errorf("kvstore: the archive holds no keys")
	}

	// A reopened store starts with an empty buffer pool: the first pass
	// of gets reads pages from the file (the OS cache still holds them),
	// the second finds them in the pool.
	if kv, err = kvstore.Open(probe, kvstore.Options{Sync: kvstore.SyncGroup}); err != nil {
		return fmt.Errorf("kvstore reopen: %w", err)
	}
	defer kv.Close()
	rng := rand.New(rand.NewSource(cfg.seed))
	sample := make([][]byte, 2000)
	for i := range sample {
		sample[i] = keys[rng.Intn(len(keys))]
	}
	for _, pass := range []string{"cold", "warm"} {
		var miss int
		d := tr.timed("kvstore.get."+pass, root, root, func(int64) {
			for _, k := range sample {
				if _, ok, err := kv.Get(k); err != nil || !ok {
					miss++
				}
			}
		})
		if miss > 0 {
			return fmt.Errorf("kvstore: %d of %d sampled keys not found", miss, len(sample))
		}
		rep.setLayer("kvstore.get_us."+pass, float64(d.Microseconds())/float64(len(sample)), "us")
	}

	// The version store's cold tier: one Get of every tf/ record.
	vs, err := version.Open(kv, "vc/", version.Options{})
	if err != nil {
		return fmt.Errorf("version open: %w", err)
	}
	sn := vs.Acquire()
	var tf []string
	for _, k := range sn.Keys() {
		if strings.HasPrefix(k, "tf/") {
			tf = append(tf, k)
		}
	}
	var missing int
	d = tr.timed("version.cold_get", root, root, func(int64) {
		for _, k := range tf {
			if _, ok := sn.Get(k); !ok {
				missing++
			}
		}
	})
	sn.Release()
	if err := vs.Close(); err != nil {
		return fmt.Errorf("version close: %w", err)
	}
	if len(tf) == 0 || missing > 0 {
		return fmt.Errorf("version: %d tf/ records, %d unreadable", len(tf), missing)
	}
	rep.setLayer("version.cold_get_us", float64(d.Microseconds())/float64(len(tf)), "us")

	// The rdbms scans Trails and Usage make.
	db, err := rdbms.NewOn(kv)
	if err != nil {
		return fmt.Errorf("rdbms: %w", err)
	}
	visits, err := db.Table("visits")
	if err != nil {
		return fmt.Errorf("rdbms visits: %w", err)
	}
	var all, mine int
	d = tr.timed("rdbms.visits_time_scan", root, root, func(int64) {
		err = visits.Select().OrderBy("time", false).Each(func(rdbms.Row) bool { all++; return true })
	})
	if err != nil {
		return fmt.Errorf("rdbms scan: %w", err)
	}
	rep.setLayer("rdbms.visits_time_scan_ms", ms(d), "ms")
	d = tr.timed("rdbms.user_visits", root, root, func(int64) {
		err = visits.Select().Where(rdbms.Eq("user", rdbms.Int(user))).Each(func(rdbms.Row) bool { mine++; return true })
	})
	if err != nil {
		return fmt.Errorf("rdbms select: %w", err)
	}
	if mine == 0 {
		return fmt.Errorf("rdbms: user %d has no visits", user)
	}
	rep.setLayer("rdbms.user_visits_ms", ms(d), "ms")
	rep.setLayer("rdbms.rows_examined_per_trail_row", float64(all)/float64(mine), "ratio")

	// A checkpoint after 20k fresh puts, on this scratch copy only.
	pairs := make([]kvstore.KV, 20000)
	for i := range pairs {
		pairs[i] = kvstore.KV{Key: []byte(fmt.Sprintf("zz/probe/%08d", i)), Value: make([]byte, 64)}
	}
	if err := kv.PutBatch(pairs); err != nil {
		return fmt.Errorf("kvstore put: %w", err)
	}
	d = tr.timed("kvstore.checkpoint", root, root, func(int64) { err = kv.Checkpoint() })
	if err != nil {
		return fmt.Errorf("kvstore checkpoint: %w", err)
	}
	rep.setLayer("kvstore.checkpoint_ms", ms(d), "ms")
	return nil
}

// probeQueue times one push and one pop on a full events.Queue, whose
// Pop shifts the whole buffer down by one.
func probeQueue(tr *tracer, rep *report) {
	const depth, n = 4096, 20000
	q := events.NewQueue(depth)
	ev := events.Event{Kind: events.VisitEvent, User: 1, URL: "http://probe.example/", Time: time.Unix(0, 0)}
	for i := 0; i < depth; i++ {
		q.Push(ev)
	}
	d := tr.timed("events.pushpop_at_depth", 0, 0, func(int64) {
		for i := 0; i < n; i++ {
			q.Push(ev)
			q.Pop()
		}
	})
	q.Close()
	rep.setLayer("events.pushpop_us_at_depth", float64(d.Nanoseconds())/1e3/n, "us")
}

// probeView times one DerivedView pass that reads the vector and both
// adjacency lists of every archived page: cold right after a reopen and
// warm straight after.
func probeView(tr *tracer, rep *report, m *memex.Memex, pages []int64) {
	for _, pass := range []string{"cold", "warm"} {
		d := tr.timed("core.view."+pass+"_pass", 0, 0, func(int64) {
			v := m.DerivedSnapshot()
			defer v.Release()
			for _, p := range pages {
				v.Vector(p)
				v.Out(p)
				v.In(p)
			}
		})
		rep.setLayer("core.view."+pass+"_pass_ms", ms(d), "ms")
	}
}
