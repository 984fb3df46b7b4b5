package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer's public function.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Run    int    `json:"run"`    // the operation (repeat) the call belongs to
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written once, at the end of
// the run. A nil *tracer records nothing, so untraced runs pay only a
// nil check per call site.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int // indices into spans of the enclosing calls
	run   int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under the innermost open one and returns its
// handle for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Run: t.run, Name: name,
		Start: int64(time.Since(t.epoch)),
	})
	idx := len(t.spans) - 1
	t.open = append(t.open, idx)
	return idx
}

// end closes the span begin returned; spans close innermost first.
func (t *tracer) end(h int) {
	if t == nil {
		return
	}
	t.spans[h].End = int64(time.Since(t.epoch))
	t.open = t.open[:len(t.open)-1]
}

// nextRun starts a new operation: later spans carry its id.
func (t *tracer) nextRun() {
	if t != nil {
		t.run++
	}
}

// since returns the spans recorded from mark on (mark is len(spans) at
// the start of the window).
func (t *tracer) since(mark int) []span { return t.spans[mark:] }

func (t *tracer) mark() int { return len(t.spans) }

// total sums the durations of the named spans in ss.
func total(ss []span, name string) time.Duration {
	var d int64
	for _, s := range ss {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return time.Duration(d)
}

// count returns how many spans in ss carry the name.
func count(ss []span, name string) int {
	n := 0
	for _, s := range ss {
		if s.Name == name {
			n++
		}
	}
	return n
}

// selfTimes returns, per span name, the summed duration minus the part
// of each span's interval its child spans cover.
func selfTimes(ss []span) map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range ss {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range ss {
		self[s.Name] += time.Duration(s.End-s.Start) - time.Duration(covered(children[s.ID]))
	}
	return self
}

// covered returns the length of the union of the spans' intervals.
func covered(ss []span) int64 {
	if len(ss) == 0 {
		return 0
	}
	iv := make([][2]int64, len(ss))
	for i, s := range ss {
		iv[i] = [2]int64{s.Start, s.End}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum int64
	cur := iv[0]
	for _, x := range iv[1:] {
		if x[0] > cur[1] {
			sum += cur[1] - cur[0]
			cur = x
		} else if x[1] > cur[1] {
			cur[1] = x[1]
		}
	}
	return sum + cur[1] - cur[0]
}

// coverage is the share of the wall interval [from, to] (ns since the
// epoch) that root spans cover.
func (t *tracer) coverage(from, to int64) float64 {
	var roots []span
	for _, s := range t.spans {
		if s.Parent == 0 && s.Start >= from && s.End <= to {
			roots = append(roots, s)
		}
	}
	if to <= from {
		return 0
	}
	return float64(covered(roots)) / float64(to-from)
}

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// renderSelf writes the self-time table, per span name and per layer
// (the name's first dot-separated element).
func renderSelf(w io.Writer, ss []span) {
	self := selfTimes(ss)
	names := make([]string, 0, len(self))
	layers := make(map[string]time.Duration)
	for n, d := range self {
		names = append(names, n)
		layers[strings.SplitN(n, ".", 2)[0]] += d
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# span self time (%d spans)\n", len(ss))
	for _, n := range names {
		fmt.Fprintf(w, "#   %-36s calls %7d  self %12.6f s\n", n, count(ss, n), self[n].Seconds())
	}
	lnames := make([]string, 0, len(layers))
	for l := range layers {
		lnames = append(lnames, l)
	}
	sort.Strings(lnames)
	for _, l := range lnames {
		fmt.Fprintf(w, "#   layer %-30s self %12.6f s\n", l, layers[l].Seconds())
	}
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
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
