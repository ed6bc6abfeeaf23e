package main

import (
	"errors"
	"fmt"
	"math"
	"reflect"

	"memex"
	"memex/internal/core"
	"memex/internal/webcorpus"
)

// checkError marks an operation whose reply arrived but was wrong (or
// empty where an answer is required).
type checkError struct{ msg string }

func (e checkError) Error() string { return "check: " + e.msg }

func failf(format string, args ...any) error { return checkError{fmt.Sprintf(format, args...)} }

func asCheck(err error, target *checkError) bool { return errors.As(err, target) }

// tolerance for sums of float64 shares and norms.
const tolerance = 1e-9

// pageOf resolves a reply's URL to the corpus page it names.
func pageOf(c *webcorpus.Corpus, url string) (*webcorpus.Page, bool) {
	id, ok := c.ByURL[url]
	if !ok {
		return nil, false
	}
	return c.Page(id), true
}

// visibility says whether a user may find a page by search: the user
// visited it, or someone visited it as Community.
type visibility interface {
	visible(user, page int64) bool
}

// checkSearch checks one search reply for user: it is not empty (the
// query comes from a page the user visited), holds at most k hits in
// non-increasing score order, and every hit is a page the user may see
// whose text holds one of the query's words.
func checkSearch(c *webcorpus.Corpus, v visibility, user int64, query string, k int, hits []memex.PageInfo) error {
	if len(hits) == 0 {
		return failf("search %q for user %d: no hits", query, user)
	}
	if len(hits) > k {
		return failf("search %q: %d hits, asked for %d", query, len(hits), k)
	}
	want := map[string]bool{}
	for _, w := range words(query) {
		want[w] = true
	}
	for i, h := range hits {
		if i > 0 && h.Score > hits[i-1].Score {
			return failf("search %q: score rises at hit %d (%g > %g)", query, i, h.Score, hits[i-1].Score)
		}
		p, ok := pageOf(c, h.URL)
		if !ok {
			return failf("search %q: hit %q is not a page of the Web", query, h.URL)
		}
		if !v.visible(user, p.ID) {
			return failf("search %q: user %d sees %q, which only other users visited privately", query, user, h.URL)
		}
		match := false
		for _, w := range words(p.Title + " " + p.Text) {
			if want[w] {
				match = true
				break
			}
		}
		if !match {
			return failf("search %q: hit %q holds no query word", query, h.URL)
		}
	}
	return nil
}

// checkRecommend checks that recommendations are not empty, never name a
// page the user visited, and only name pages a peer visited as
// Community.
func checkRecommend(c *webcorpus.Corpus, f *facts, user int64, recs []memex.PageInfo) error {
	if len(recs) == 0 {
		return failf("recommend for user %d: empty", user)
	}
	for _, r := range recs {
		p, ok := pageOf(c, r.URL)
		if !ok {
			return failf("recommend: %q is not a page of the Web", r.URL)
		}
		if f.visitedBy[user][p.ID] {
			return failf("recommend for user %d: %q was already visited by the user", user, r.URL)
		}
		peer := false
		for u, pages := range f.visitedBy {
			if u != user && pages[p.ID] && f.community[p.ID] {
				peer = true
				break
			}
		}
		if !peer {
			return failf("recommend for user %d: no peer visited %q", user, r.URL)
		}
	}
	return nil
}

// checkProfile checks that profile weights are not empty, non-negative,
// of unit L2 norm, and keyed by themes that exist.
func checkProfile(user int64, weights map[int]float64, themes []memex.ThemeInfo) error {
	if len(weights) == 0 {
		return failf("profile for user %d: empty", user)
	}
	ids := map[int]bool{}
	for _, t := range themes {
		ids[t.ID] = true
	}
	var sq float64
	for id, w := range weights {
		if w < 0 {
			return failf("profile for user %d: theme %d weighs %g", user, id, w)
		}
		if !ids[id] {
			return failf("profile for user %d: theme %d does not exist", user, id)
		}
		sq += w * w
	}
	if math.Abs(math.Sqrt(sq)-1) > tolerance {
		return failf("profile for user %d: L2 norm %g, want 1", user, math.Sqrt(sq))
	}
	return nil
}

// checkUsage checks that a usage breakdown is not empty, its shares sum
// to 1, and its visit counts add up to the visits the user made.
func checkUsage(user int64, slices []core.UsageSlice, visits int) error {
	if len(slices) == 0 {
		return failf("usage for user %d: empty", user)
	}
	var share float64
	n := 0
	for _, s := range slices {
		if s.Share < 0 {
			return failf("usage for user %d: %s has share %g", user, s.Folder, s.Share)
		}
		share += s.Share
		n += s.Visits
	}
	if math.Abs(share-1) > tolerance {
		return failf("usage for user %d: shares sum to %g, want 1", user, share)
	}
	if n != visits {
		return failf("usage for user %d: %d visits counted, the user made %d", user, n, visits)
	}
	return nil
}

// checkTrails checks that a trail is not empty and that every page on it
// (and every popular page) appears in the trace.
func checkTrails(c *webcorpus.Corpus, f *facts, user int64, tc memex.TrailContext) error {
	if len(tc.Pages) == 0 {
		return failf("trails for user %d folder %s: no pages", user, tc.Folder)
	}
	for _, list := range [][]memex.PageInfo{tc.Pages, tc.Popular} {
		for _, pi := range list {
			p, ok := pageOf(c, pi.URL)
			if !ok || !f.archived[p.ID] {
				return failf("trails for user %d: %q is not in the trace", user, pi.URL)
			}
		}
	}
	return nil
}

// checkDiscover checks that discovery found something and only names
// pages of the Web.
func checkDiscover(c *webcorpus.Corpus, user int64, found []memex.PageInfo) error {
	if len(found) == 0 {
		return failf("discover for user %d: empty", user)
	}
	for _, pi := range found {
		if _, ok := pageOf(c, pi.URL); !ok {
			return failf("discover for user %d: %q is not a page of the Web", user, pi.URL)
		}
	}
	return nil
}

// checkSameThemes checks that two theme rebuilds over the same archive
// list identical themes.
func checkSameThemes(a, b []memex.ThemeInfo) error {
	if len(a) == 0 {
		return failf("themes: none built")
	}
	if !reflect.DeepEqual(a, b) {
		return failf("themes: two rebuilds differ (%d and %d themes)", len(a), len(b))
	}
	return nil
}

// checkIngest checks the engine's counters after an ingest round has
// drained: every visit was logged, every page the trace names was
// indexed, and no event was shed.
func checkIngest(st memex.Stats, f *facts) error {
	if st.Visits != f.visits {
		return failf("ingest: %d visits logged, %d sent", st.Visits, f.visits)
	}
	if st.PagesIndexed != len(f.archived) {
		return failf("ingest: %d pages indexed, the trace names %d", st.PagesIndexed, len(f.archived))
	}
	if st.EventsDropped != 0 {
		return failf("ingest: %d events shed", st.EventsDropped)
	}
	return nil
}

// checkSameAnswers checks that the archive gives the same answers after
// a close and reopen: the same indexed page count and the same hits for
// each query of a fixed set.
func checkSameAnswers(beforeIndexed, afterIndexed int, before, after [][]memex.PageInfo) error {
	if beforeIndexed != afterIndexed {
		return failf("reopen: %d pages indexed before, %d after", beforeIndexed, afterIndexed)
	}
	if !reflect.DeepEqual(before, after) {
		return failf("reopen: the fixed queries answer differently")
	}
	return nil
}
