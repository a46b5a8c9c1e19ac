package main

import (
	"sort"
)

// spanKinds are the kinds the stack records today, in print order.
// Everything inside raft, the router and remi is dark: it shows up as
// handler self time on the server side and as uncovered time on the
// client side.
var spanKinds = []string{"client", "server", "queue", "handler", "bulk"}

// childrenOf indexes spans by the span that caused them.
func childrenOf(spans []span) map[uint64][]span {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	return children
}

// selfTimes returns, per span id, the span's duration minus the part
// of its interval that its children cover. Children may nest, overlap
// each other, or stick out of the parent (clocks of two processes);
// only the covered part inside the parent counts.
func selfTimes(spans []span, children map[uint64][]span) map[uint64]int64 {
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		lo, hi := s.Start, s.Start+s.Dur
		covered, at := int64(0), lo // at: end of what is covered so far
		for _, k := range kids {
			a, b := k.Start, k.Start+k.Dur
			if a < at {
				a = at
			}
			if b > hi {
				b = hi
			}
			if b > a {
				covered += b - a
				at = b
			}
		}
		self[s.ID] = s.Dur - covered
	}
	return self
}

// breakdown is where the latency of a set of request trees went.
type breakdown struct {
	roots    int
	rootNS   int64            // summed duration of the roots: the client-observed latency
	selfNS   map[string]int64 // summed self time by span kind, roots under kindOp
	traceIDs []uint64         // the trees counted, oldest first
}

// share is a kind's self time as a share of client-observed latency.
func (b *breakdown) share(kind string) float64 {
	if b.rootNS == 0 {
		return 0
	}
	return float64(b.selfNS[kind]) / float64(b.rootNS)
}

// analyse attributes the latency of every root that passes `keep` and
// started at or after `from` to the kinds of the spans under it.
func analyse(spans []span, from int64, keep func(root span) bool) *breakdown {
	children := childrenOf(spans)
	self := selfTimes(spans, children)
	b := &breakdown{selfNS: map[string]int64{}}
	var walk func(s span)
	walk = func(s span) {
		b.selfNS[s.Kind] += self[s.ID]
		for _, k := range children[s.ID] {
			walk(k)
		}
	}
	roots := make([]span, 0, len(spans))
	for _, s := range spans {
		if s.Kind == kindOp && s.Parent == 0 && s.Start >= from && keep(s) {
			roots = append(roots, s)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].Start < roots[j].Start })
	for _, s := range roots {
		b.roots++
		b.rootNS += s.Dur
		b.traceIDs = append(b.traceIDs, s.TraceID)
		walk(s)
	}
	return b
}

// spansOf returns the spans of the given traces.
func spansOf(spans []span, traceIDs []uint64) []span {
	keep := make(map[uint64]bool, len(traceIDs))
	for _, id := range traceIDs {
		keep[id] = true
	}
	var out []span
	for _, s := range spans {
		if keep[s.TraceID] {
			out = append(out, s)
		}
	}
	return out
}
