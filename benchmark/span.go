package main

import (
	"bufio"
	"fmt"
	"os"
)

// spanKind names the seam a span was recorded at. Spans are recorded from
// the benchmark's own files, around the calls into each layer's public
// functions; spans inside the program are a later change.
type spanKind uint8

const (
	spanOp        spanKind = iota // one library operation, client side (root)
	spanMiss                      // one simulated LLC miss (root)
	spanORAMRead                  // oram.Controller.Read
	spanORAMWrite                 // oram.Controller.Write
	spanSeal                      // seal.Sealer.Seal
	spanLoad                      // the body of shard.Store.Load
	spanOpen                      // seal.Sealer.Open
	spanFill                      // cache.Hierarchy.Fill / FillPrefetch
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"op", "sim.miss", "oram.Controller.Read", "oram.Controller.Write",
	"seal.Sealer.Seal", "shard.Store.Load", "seal.Sealer.Open", "cache.Hierarchy.Fill",
}

// span is one timed interval: which seam, when, which span caused it and
// which operation it belongs to.
type span struct {
	start, end int64
	parent     int32
	op         uint32
	kind       spanKind
}

// tracer keeps one client's spans in memory until the run ends. A nil
// tracer records nothing, so the same driving code runs traced and
// untraced.
type tracer struct {
	spans []span
	cur   int32
	op    uint32
}

func newTracer(capacity int) *tracer {
	return &tracer{spans: make([]span, 0, capacity), cur: -1}
}

// beginOp opens a root span for operation op.
func (t *tracer) beginOp(kind spanKind, op uint32) int32 {
	if t == nil {
		return -1
	}
	t.op = op
	return t.begin(kind)
}

// begin opens a span under the innermost open one.
func (t *tracer) begin(kind spanKind) int32 {
	if t == nil {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{parent: t.cur, op: t.op, kind: kind, start: now()})
	t.cur = id
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.end = now()
	t.cur = s.parent
}

// spanTotals aggregates spans by kind. Self time is a span's duration
// minus the part its child spans cover.
type spanTotals struct {
	count [numSpanKinds]uint64
	total [numSpanKinds]int64
	self  [numSpanKinds]int64
}

func (t *tracer) totals(into *spanTotals) {
	for _, s := range t.spans {
		d := s.end - s.start
		into.count[s.kind]++
		into.total[s.kind] += d
		into.self[s.kind] += d
		if s.parent >= 0 {
			into.self[t.spans[s.parent].kind] -= d
		}
	}
}

// perCall returns the mean duration of one span of the kind, in ns.
func (st *spanTotals) perCall(k spanKind) float64 {
	if st.count[k] == 0 {
		return 0
	}
	return float64(st.total[k]) / float64(st.count[k])
}

// writeSpans writes every tracer's spans as a Chrome trace-event array
// (load it in Perfetto or chrome://tracing): one thread per client, time
// in microseconds, and the span id, parent id and operation in args.
func writeSpans(path string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, "[")
	first := true
	for tid, t := range tracers {
		for id, s := range t.spans {
			if !first {
				fmt.Fprint(w, ",")
			}
			first = false
			fmt.Fprintf(w, "\n{\"name\":%q,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"op\":%d}}",
				spanNames[s.kind], tid+1, float64(s.start)/1e3, float64(s.end-s.start)/1e3, id, s.parent, s.op)
		}
	}
	fmt.Fprint(w, "\n]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
