package main

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"memex"
	"memex/internal/core"
	"memex/internal/sim"
	"memex/internal/webcorpus"
)

// A tiny hand-made Web and trace: users 1 and 2 visit page 1 as
// Community; only user 2 visits page 2, privately; user 1 visits page 3
// privately and user 2 as Community; nobody visits page 4.
func fixture() (*webcorpus.Corpus, *facts) {
	c := &webcorpus.Corpus{ByURL: map[string]int64{}}
	texts := []string{"alpha01 beta02 common", "alpha01 secret09", "beta02 mine07", "alpha01 unseen05"}
	for i, t := range texts {
		id := int64(i + 1)
		url := "http://w.example/p" + string(rune('0'+id))
		c.Pages = append(c.Pages, webcorpus.Page{ID: id, URL: url, Title: "t", Text: t})
		c.ByURL[url] = id
	}
	f := newFacts()
	for _, e := range []event{
		{visit: true, user: 1, page: 1, privacy: memex.Community},
		{visit: true, user: 2, page: 1, privacy: memex.Community},
		{visit: true, user: 2, page: 2, privacy: memex.Private},
		{visit: true, user: 1, page: 3, privacy: memex.Private},
		{visit: true, user: 2, page: 3, privacy: memex.Community},
	} {
		f.add(e)
	}
	return c, f
}

func hit(c *webcorpus.Corpus, page int64, score float64) memex.PageInfo {
	return memex.PageInfo{ID: page, URL: c.Page(page).URL, Score: score}
}

func wantFail(t *testing.T, name string, err error, substr string) {
	t.Helper()
	var ce checkError
	if err == nil || !asCheck(err, &ce) {
		t.Fatalf("%s: got %v, want a check failure", name, err)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("%s: got %q, want it to mention %q", name, err, substr)
	}
}

func TestCheckSearch(t *testing.T) {
	c, f := fixture()
	good := []memex.PageInfo{hit(c, 1, 2), hit(c, 3, 1)}
	if err := checkSearch(c, f, 1, "alpha01 beta02", 2, good); err != nil {
		t.Fatalf("good reply rejected: %v", err)
	}
	wantFail(t, "private page of another user", checkSearch(c, f, 1, "alpha01", 10, []memex.PageInfo{hit(c, 2, 1)}), "privately")
	wantFail(t, "more than k", checkSearch(c, f, 1, "alpha01 beta02", 1, good), "asked for 1")
	wantFail(t, "rising score", checkSearch(c, f, 1, "alpha01 beta02", 2, []memex.PageInfo{hit(c, 1, 1), hit(c, 3, 2)}), "score rises")
	wantFail(t, "no query word", checkSearch(c, f, 1, "gamma03", 2, []memex.PageInfo{hit(c, 1, 1)}), "no query word")
	wantFail(t, "empty", checkSearch(c, f, 1, "alpha01", 2, nil), "no hits")
	wantFail(t, "unknown page", checkSearch(c, f, 1, "alpha01", 2, []memex.PageInfo{{URL: "http://elsewhere/"}}), "not a page")
}

// A browse search is judged by the visits sent before its reply came:
// a visit scheduled later must not excuse a hit on a page that only
// another user had visited privately.
func TestTimelineLaterVisitDoesNotExcuse(t *testing.T) {
	c, f := fixture()
	sched := []slot{
		{kind: 'S', user: 1, query: "secret09"},
		{kind: 'R', ev: event{visit: true, user: 3, page: 2, privacy: memex.Community}},
		{kind: 'V', ev: event{visit: true, user: 1, page: 2, privacy: memex.Private}},
	}
	reply := []memex.PageInfo{hit(c, 2, 1)}
	tl := newTimeline(f, sched)
	wantFail(t, "later Community visit", checkSearch(c, tl, 1, "secret09", 10, reply), "privately")
	tl.markSent(2)
	if err := checkSearch(c, tl, 1, "secret09", 10, reply); err != nil {
		t.Fatalf("hit on a page the user's own sent visit archived rejected: %v", err)
	}
	wantFail(t, "another user's private visit", checkSearch(c, tl, 4, "secret09", 10, reply), "privately")
	tl = newTimeline(f, sched)
	tl.markSent(1)
	if err := checkSearch(c, tl, 4, "secret09", 10, reply); err != nil {
		t.Fatalf("hit on a page a sent Community visit archived rejected: %v", err)
	}
}

// The browse pattern has the request shares of the load harness's
// ci-small scenario.
func TestBrowseMix(t *testing.T) {
	mix, err := browseMix()
	if err != nil {
		t.Fatal(err)
	}
	got := map[rune]int{}
	for _, k := range mix {
		got[k]++
	}
	want := map[rune]int{'V': 18, 'S': 6, 'R': 28, 'T': 8}
	if len(mix) != browseMixLen || !reflect.DeepEqual(got, want) {
		t.Fatalf("mix %q has %v, want %v", mix, got, want)
	}
}

func TestCheckRecommend(t *testing.T) {
	c, f := fixture()
	if err := checkRecommend(c, f, 1, nil); err == nil {
		t.Fatal("empty recommendation accepted")
	}
	wantFail(t, "visited page", checkRecommend(c, f, 1, []memex.PageInfo{hit(c, 1, 0)}), "already visited")
	wantFail(t, "private peer page", checkRecommend(c, f, 1, []memex.PageInfo{hit(c, 2, 0)}), "no peer")
	wantFail(t, "unvisited page", checkRecommend(c, f, 1, []memex.PageInfo{hit(c, 4, 0)}), "no peer")
	f.add(event{visit: true, user: 2, page: 4, privacy: memex.Community})
	if err := checkRecommend(c, f, 1, []memex.PageInfo{hit(c, 4, 0)}); err != nil {
		t.Fatalf("good recommendation rejected: %v", err)
	}
}

func TestCheckProfile(t *testing.T) {
	themes := []memex.ThemeInfo{{ID: 0}, {ID: 1}, {ID: 2}}
	good := map[int]float64{0: 0.6, 2: 0.8}
	if err := checkProfile(1, good, themes); err != nil {
		t.Fatalf("good profile rejected: %v", err)
	}
	wantFail(t, "negative", checkProfile(1, map[int]float64{0: -0.6, 2: 0.8}, themes), "weighs")
	wantFail(t, "not unit", checkProfile(1, map[int]float64{0: 0.6, 2: 0.7}, themes), "norm")
	wantFail(t, "unknown theme", checkProfile(1, map[int]float64{0: 0.6, 7: 0.8}, themes), "does not exist")
	wantFail(t, "empty", checkProfile(1, nil, themes), "empty")
}

func TestCheckUsage(t *testing.T) {
	good := []core.UsageSlice{{Folder: "/a", Visits: 3, Share: 0.75}, {Folder: "/b", Visits: 1, Share: 0.25}}
	if err := checkUsage(1, good, 4); err != nil {
		t.Fatalf("good usage rejected: %v", err)
	}
	wantFail(t, "shares sum to 0.9", checkUsage(1, []core.UsageSlice{{Visits: 3, Share: 0.65}, {Visits: 1, Share: 0.25}}, 4), "sum to 0.9")
	wantFail(t, "visit count", checkUsage(1, good, 5), "the user made 5")
	wantFail(t, "negative share", checkUsage(1, []core.UsageSlice{{Visits: 4, Share: 1.25}, {Share: -0.25}}, 4), "share -0.25")
	wantFail(t, "empty", checkUsage(1, nil, 4), "empty")
}

func TestCheckTrails(t *testing.T) {
	c, f := fixture()
	good := memex.TrailContext{Folder: "/f", Pages: []memex.PageInfo{hit(c, 1, 1)}, Popular: []memex.PageInfo{hit(c, 3, 0)}}
	if err := checkTrails(c, f, 1, good); err != nil {
		t.Fatalf("good trail rejected: %v", err)
	}
	wantFail(t, "page outside the trace", checkTrails(c, f, 1, memex.TrailContext{Pages: []memex.PageInfo{hit(c, 4, 1)}}), "not in the trace")
	wantFail(t, "popular page outside the trace", checkTrails(c, f, 1, memex.TrailContext{Pages: good.Pages, Popular: []memex.PageInfo{hit(c, 4, 0)}}), "not in the trace")
	wantFail(t, "empty", checkTrails(c, f, 1, memex.TrailContext{}), "no pages")
}

func TestCheckDiscover(t *testing.T) {
	c, _ := fixture()
	if err := checkDiscover(c, 1, []memex.PageInfo{hit(c, 4, 1)}); err != nil {
		t.Fatalf("good discovery rejected: %v", err)
	}
	wantFail(t, "foreign page", checkDiscover(c, 1, []memex.PageInfo{{URL: "http://elsewhere/"}}), "not a page")
	wantFail(t, "empty", checkDiscover(c, 1, nil), "empty")
}

func TestCheckSameThemes(t *testing.T) {
	a := []memex.ThemeInfo{{ID: 0, Label: "x", Signature: []string{"s"}}}
	b := []memex.ThemeInfo{{ID: 0, Label: "x", Signature: []string{"s"}}}
	if err := checkSameThemes(a, b); err != nil {
		t.Fatalf("identical themes rejected: %v", err)
	}
	b[0].Signature = []string{"t"}
	wantFail(t, "differing rebuild", checkSameThemes(a, b), "differ")
	wantFail(t, "no themes", checkSameThemes(nil, nil), "none")
}

func TestCheckIngest(t *testing.T) {
	_, f := fixture()
	good := memex.Stats{Visits: f.visits, PagesIndexed: len(f.archived)}
	if err := checkIngest(good, f); err != nil {
		t.Fatalf("good counters rejected: %v", err)
	}
	bad := good
	bad.Visits--
	wantFail(t, "lost visit", checkIngest(bad, f), "visits logged")
	bad = good
	bad.PagesIndexed++
	wantFail(t, "indexed count", checkIngest(bad, f), "pages indexed")
	bad = good
	bad.EventsDropped = 1
	wantFail(t, "shed event", checkIngest(bad, f), "shed")
}

func TestCheckSameAnswers(t *testing.T) {
	c, _ := fixture()
	before := [][]memex.PageInfo{{hit(c, 1, 2)}}
	if err := checkSameAnswers(3, 3, before, [][]memex.PageInfo{{hit(c, 1, 2)}}); err != nil {
		t.Fatalf("identical answers rejected: %v", err)
	}
	wantFail(t, "indexed count changed", checkSameAnswers(3, 2, before, before), "indexed")
	wantFail(t, "answers changed", checkSameAnswers(3, 3, before, [][]memex.PageInfo{{hit(c, 1, 2.5)}}), "differently")
}

// The query words must be words the engine cannot stem, or the search
// check's verbatim match would reject good hits.
func TestQueryWords(t *testing.T) {
	got := queryWords("Travel_classical07 travel_gen12 word123 the running ab1 classical07")
	want := []string{"classical07", "gen12"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("queryWords = %v, want %v", got, want)
	}
}

func TestQuantile(t *testing.T) {
	v := []float64{4, 1, 3, 2}
	if q := quantile(v, 0.5); q != 2.5 {
		t.Fatalf("median = %g, want 2.5", q)
	}
	if q := quantile(nil, 0.5); !math.IsNaN(q) {
		t.Fatalf("median of nothing = %g, want NaN", q)
	}
}

// traceEvents must keep trace order and send pages of the private set
// as Private.
func TestTraceEventsOrderAndPrivacy(t *testing.T) {
	w := memex.GenerateWorld(memex.WorldConfig{Seed: 3, Surf: sim.Config{Users: 3, Days: 2}})
	private := map[int64]bool{w.Trace.Visits[0].Page: true}
	evs := traceEvents(w, private)
	if len(evs) != len(w.Trace.Visits)+len(w.Trace.Bookmarks) {
		t.Fatalf("%d events for %d visits and %d bookmarks", len(evs), len(w.Trace.Visits), len(w.Trace.Bookmarks))
	}
	var last time.Time
	for _, e := range evs {
		if e.at.Before(last) {
			t.Fatal("events out of time order")
		}
		last = e.at
		if e.visit && (e.privacy == memex.Private) != private[e.page] {
			t.Fatalf("page %d sent as %v", e.page, e.privacy)
		}
	}
}
