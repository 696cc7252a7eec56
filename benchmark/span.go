package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced interval. Spans of one request share Req; Parent is the
// id of the span that caused this one (0: a root). The benchmark records
// spans around its own calls into each layer; nothing inside the library is
// instrumented yet.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its id (0 on a nil tracer).
func (t *tracer) start(req, parent int64, name string) int64 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

// end closes the span.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span of the given length that the program under test timed
// itself (a reported queueing time), placed at the parent's start.
func (t *tracer) add(req, parent int64, name string, d time.Duration) {
	if t == nil || parent == 0 {
		return
	}
	t.mu.Lock()
	start := t.spans[parent-1].Start
	t.spans = append(t.spans, span{ID: int64(len(t.spans) + 1), Parent: parent, Req: req, Name: name, Start: start, End: start + int64(d)})
	t.mu.Unlock()
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval that its child spans cover (overlapping children are counted
// once, children are clipped to the parent).
func selfTimes(spans []span) map[int64]int64 {
	type iv struct{ a, b int64 }
	kids := make(map[int64][]iv)
	byID := make(map[int64]*span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	for i := range spans {
		s := &spans[i]
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		a, b := max(s.Start, p.Start), min(s.End, p.End)
		if b > a {
			kids[p.ID] = append(kids[p.ID], iv{a, b})
		}
	}
	out := make(map[int64]int64, len(spans))
	for i := range spans {
		s := &spans[i]
		ivs := kids[s.ID]
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, end int64
		end = s.Start
		for _, v := range ivs {
			if v.b <= end {
				continue
			}
			covered += v.b - max(v.a, end)
			end = v.b
		}
		out[s.ID] = (s.End - s.Start) - covered
	}
	return out
}

// layerShares sums span self time by name over the requests that have a
// "replay" span, and returns each name's share of those requests' root time.
// A sampled request's probes run under a replay span whose parent is the
// request's root span: the root is the real call, the replay's children are
// the same inputs fed to each layer's own entry point on a twin, so a share
// is "how long that layer alone takes on this request" over "how long the
// request took". "unattributed" is what the probes do not account for; it is
// negative when the layers replayed one after another take longer than the
// fused call did.
func layerShares(spans []span) map[string]float64 {
	self := selfTimes(spans)
	byID := make(map[int64]*span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	var rootNS int64
	sum := make(map[string]int64)
	for i := range spans {
		s := &spans[i]
		if s.Name != "replay" {
			continue
		}
		if root, ok := byID[s.Parent]; ok {
			rootNS += root.End - root.Start
		}
	}
	if rootNS == 0 {
		return nil
	}
	for i := range spans {
		s := &spans[i]
		// Direct children of a replay span are the layer probes; deeper
		// spans are their own nested probes and already excluded from the
		// parent's self time.
		for p, ok := byID[s.Parent]; ok; p, ok = byID[p.Parent] {
			if p.Name == "replay" {
				sum[s.Name] += self[s.ID]
				break
			}
		}
	}
	out := make(map[string]float64, len(sum)+1)
	var attributed int64
	for name, ns := range sum {
		out[name] = float64(ns) / float64(rootNS)
		attributed += ns
	}
	out["unattributed"] = float64(rootNS-attributed) / float64(rootNS)
	return out
}
