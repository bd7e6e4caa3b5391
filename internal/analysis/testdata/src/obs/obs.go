// Package obs is a proram-vet golden fixture for the observability
// emission sink of the taint pass: a metric name, a trace argument or a
// view's reading derived from secret payload bytes lands in an exported
// file, so it must be flagged; lengths, public counters and explicit
// declassifies must not.
package obs

import "proram/internal/obs"

type block struct {
	leaf uint64
	//proram:secret fixture payload bytes
	data []byte
}

func secretMetricLabel(rec *obs.Recorder, b block) {
	label := "oram.block." + string(b.data[:4])
	rec.Counter(label, func() uint64 { return b.leaf }) // want `observability emission argument depends on secret block payload bytes`
}

func secretView(rec *obs.Recorder, b block) {
	rec.Counter("oram.peek", func() uint64 { return uint64(b.data[0]) }) // want `observability emission argument depends on secret block payload bytes`
}

func secretTraceArg(rec *obs.Recorder, b block, now uint64) {
	rec.Instant("oram", "peek", now, "payload", uint64(b.data[0])) // want `observability emission argument depends on secret block payload bytes`
}

func publicEmission(rec *obs.Recorder, b block, now uint64) {
	// Block geometry and the assigned leaf are public by construction.
	rec.Counter("oram.path_accesses", func() uint64 { return b.leaf })
	rec.Instant("oram", "access", now, "leaf", b.leaf)
	rec.Histogram("oram.block_len", nil).Observe(float64(len(b.data)))
}

func declassifiedEmission(rec *obs.Recorder, b block, now uint64) {
	version := b.data[0] //proram:public fixture: the version byte is public by protocol
	rec.Instant("oram", "version", now, "v", uint64(version))
}

func allowedEmission(rec *obs.Recorder, b block, now uint64) {
	//proram:allow oblivious fixture: debug-only dump, never built into release binaries
	rec.Instant("oram", "debug", now, "raw", uint64(b.data[1]))
}
