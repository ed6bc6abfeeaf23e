package main

import (
	"math/rand"
	"sort"
	"strings"
	"time"
	"unicode"

	"memex"
)

// event is one step of a trace replay: a visit or a bookmark.
type event struct {
	visit   bool
	user    int64
	page    int64
	url     string
	ref     string
	folder  string
	at      time.Time
	privacy memex.Privacy
}

// traceEvents merges the world's visits and bookmarks into one
// time-ordered stream (a visit goes before a bookmark of the same
// instant). Visits to pages in private are sent as Private, all others
// as Community.
func traceEvents(w *memex.World, private map[int64]bool) []event {
	out := make([]event, 0, len(w.Trace.Visits)+len(w.Trace.Bookmarks))
	for _, v := range w.Trace.Visits {
		ev := event{visit: true, user: v.User, page: v.Page, url: w.Corpus.Page(v.Page).URL, at: v.Time, privacy: memex.Community}
		if v.Referrer != 0 {
			ev.ref = w.Corpus.Page(v.Referrer).URL
		}
		if private[v.Page] {
			ev.privacy = memex.Private
		}
		out = append(out, ev)
	}
	for _, b := range w.Trace.Bookmarks {
		out = append(out, event{user: b.User, page: b.Page, url: w.Corpus.Page(b.Page).URL, folder: b.Folder, at: b.Time})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].at.Before(out[j].at) })
	return out
}

// traceEnd is the instant of the last event; the engine clock is pinned
// an hour after it.
func traceEnd(evs []event) time.Time {
	var end time.Time
	for _, e := range evs {
		if e.at.After(end) {
			end = e.at
		}
	}
	return end.Add(time.Hour)
}

// facts are what the checks compare against: derived from the events the
// benchmark sent, never from the program's answers.
type facts struct {
	visits    int64                    // visit events
	visitsOf  map[int64]int            // user → number of visits
	visitedBy map[int64]map[int64]bool // user → pages the user visited
	community map[int64]bool           // pages with a Community visit
	archived  map[int64]bool           // pages visited or bookmarked
}

func newFacts() *facts {
	return &facts{
		visitsOf:  map[int64]int{},
		visitedBy: map[int64]map[int64]bool{},
		community: map[int64]bool{},
		archived:  map[int64]bool{},
	}
}

// add records one sent event.
func (f *facts) add(e event) {
	f.archived[e.page] = true
	if !e.visit {
		return
	}
	f.visits++
	f.visitsOf[e.user]++
	if f.visitedBy[e.user] == nil {
		f.visitedBy[e.user] = map[int64]bool{}
	}
	f.visitedBy[e.user][e.page] = true
	if e.privacy == memex.Community {
		f.community[e.page] = true
	}
}

// visible reports whether user visited page or anyone visited it as
// Community.
func (f *facts) visible(user, page int64) bool {
	return f.community[page] || f.visitedBy[user][page]
}

// userFolder is the folder the user bookmarked most often (ties go to
// the smaller path), the folder the mining workload asks about.
func userFolder(w *memex.World, user int64) string {
	n := map[string]int{}
	for _, b := range w.Trace.Bookmarks {
		if b.User == user {
			n[b.Folder]++
		}
	}
	best := ""
	for f, c := range n {
		if best == "" || c > n[best] || (c == n[best] && f < best) {
			best = f
		}
	}
	return best
}

// words splits text into lowercase runs of letters and digits, the way
// a reader would pick words out of a page. It is deliberately not the
// engine's tokenizer, so the search checks do not trust the code they
// check.
func words(s string) []string {
	return strings.FieldsFunc(strings.ToLower(s), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
}

// queryWords returns the topical words of a page: words that end in a
// digit (the synthetic Web's topic vocabulary, e.g. "classical07"),
// leaving out the shared background words ("word123"). Such a word has
// no suffix to stem, so a page matches it only by holding it verbatim.
func queryWords(text string) []string {
	seen := map[string]bool{}
	var out []string
	for _, w := range words(text) {
		last := rune(w[len(w)-1])
		if len(w) < 4 || !unicode.IsDigit(last) || strings.HasPrefix(w, "word") || seen[w] {
			continue
		}
		seen[w] = true
		out = append(out, w)
	}
	sort.Strings(out)
	return out
}

// recallQuery makes a two-word query from a page the user visited, or
// returns "" when the page has fewer than two topical words.
func recallQuery(rng *rand.Rand, text string) string {
	cand := queryWords(text)
	if len(cand) < 2 {
		return ""
	}
	i := rng.Intn(len(cand))
	j := rng.Intn(len(cand) - 1)
	if j >= i {
		j++
	}
	return cand[i] + " " + cand[j]
}

// shuffledUsers returns the world's user ids in an order drawn from rng.
func shuffledUsers(w *memex.World, rng *rand.Rand) []int64 {
	ids := make([]int64, len(w.Trace.Users))
	for i, u := range w.Trace.Users {
		ids[i] = u.ID
	}
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	return ids
}
