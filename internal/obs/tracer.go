package obs

import (
	"bufio"
	"io"
	"strconv"
)

// Event is one structured trace record in the Chrome trace-event model:
// a phase ('X' complete span, 'i' instant, 'M' metadata), a category, a name, a timestamp and duration in simulated
// cycles (written as microseconds, the unit the viewers expect), the
// logical process id, and at most one integer argument. One small fixed
// argument keeps emission allocation-free; sites needing more context
// emit two events.
type Event struct {
	Ph     byte
	Cat    string
	Name   string
	TS     uint64
	Dur    uint64
	Pid    int
	ArgKey string
	ArgVal uint64
}

// Tracer serializes events as a Chrome trace-event JSON array with one
// event per line — loadable by chrome://tracing and Perfetto, and still
// greppable line-by-line like JSONL. Close writes the terminating bracket
// so the finished file is well-formed JSON.
type Tracer struct {
	w      *bufio.Writer
	buf    []byte // reusable per-event scratch
	events uint64
	closed bool
	err    error
}

// NewTracer starts a trace stream on w.
func NewTracer(w io.Writer) *Tracer {
	t := &Tracer{w: bufio.NewWriter(w), buf: make([]byte, 0, 256)}
	_, t.err = t.w.WriteString("[\n")
	return t
}

// Meta emits a process_name metadata record for pid.
func (t *Tracer) Meta(pid int, name string) {
	b := t.buf[:0]
	b = append(b, `{"name":"process_name","ph":"M","pid":`...)
	b = strconv.AppendInt(b, int64(pid), 10)
	b = append(b, `,"args":{"name":`...)
	b = strconv.AppendQuote(b, name)
	b = append(b, "}}"...)
	t.writeLine(b)
}

// Emit writes one event.
func (t *Tracer) Emit(e Event) {
	t.writeLine(appendEvent(t.buf[:0], e))
}

// appendEvent renders one event record, the single source of truth for
// the record shape (shared with the flight-recorder dump).
func appendEvent(b []byte, e Event) []byte {
	b = append(b, `{"name":`...)
	b = strconv.AppendQuote(b, e.Name)
	b = append(b, `,"cat":`...)
	b = strconv.AppendQuote(b, e.Cat)
	b = append(b, `,"ph":"`...)
	b = append(b, e.Ph)
	b = append(b, `","ts":`...)
	b = strconv.AppendUint(b, e.TS, 10)
	if e.Ph == 'X' {
		b = append(b, `,"dur":`...)
		b = strconv.AppendUint(b, e.Dur, 10)
	}
	b = append(b, `,"pid":`...)
	b = strconv.AppendInt(b, int64(e.Pid), 10)
	b = append(b, `,"tid":1`...)
	if e.Ph == 'i' {
		b = append(b, `,"s":"p"`...) // instant scope: process
	}
	if e.ArgKey != "" {
		b = append(b, `,"args":{`...)
		b = strconv.AppendQuote(b, e.ArgKey)
		b = append(b, ':')
		b = strconv.AppendUint(b, e.ArgVal, 10)
		b = append(b, '}')
	}
	b = append(b, '}')
	return b
}

// writeLine appends one record line, comma-separating from its
// predecessor so the overall file stays one valid JSON array.
func (t *Tracer) writeLine(b []byte) {
	t.buf = b[:0]
	if t.err != nil || t.closed {
		return
	}
	if t.events > 0 {
		if _, err := t.w.WriteString(",\n"); err != nil {
			t.err = err
			return
		}
	}
	if _, err := t.w.Write(b); err != nil {
		t.err = err
		return
	}
	t.events++
}

// Close terminates the array and flushes. It returns the first error the
// stream hit, if any. Closing twice is safe.
func (t *Tracer) Close() error {
	if t.closed {
		return t.err
	}
	t.closed = true
	if t.err == nil {
		_, t.err = t.w.WriteString("\n]\n")
	}
	if err := t.w.Flush(); t.err == nil {
		t.err = err
	}
	return t.err
}
