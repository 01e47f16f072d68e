package core

import "time"

// sampleQueue holds what a pipeline's transform stage emits while its
// detect stage is fitting on a worker: samples (record time, vector) and
// reset markers (event time), in arrival order, with the provenance each
// sample arrived under. LandFit drains it from the front.
//
// Entries live in fixed-size chunks that are kept across fits: filling
// the queue never copies a sample, a chunk the drain has emptied moves
// to the back for reuse, and a warm fit-and-land cycle allocates
// nothing. A sample costs its vector, its time and a flag (73 bytes for
// the raw transform's six channels, against the 184-byte shard-queue
// envelope of its record). Provenance changes once per ingest frame, not
// per record, so it is kept as spans: spans[k] covers the entries from
// sequence number spans[k].from up to the next span's.
type sampleQueue struct {
	dim    int           // vector width
	chunks []*queueChunk // chunks[0] holds the oldest entry
	head   int           // its slot in chunks[0]
	n      int           // entries queued
	seq    int           // its sequence number, counted since the queue was last empty
	spans  []provSpan
	span   int // the span covering the oldest entry

	// The drain's run under construction: times and views of the queued
	// vectors (valid until the next push), at most runCap of them, all
	// under runProv.
	runT    []time.Time
	runX    [][]float64
	runProv provenance
}

// queueChunkLen is the number of entries a chunk holds.
const queueChunkLen = runCap

type queueChunk struct {
	times [queueChunkLen]time.Time
	reset [queueChunkLen]bool
	xs    []float64 // queueChunkLen rows of dim; nil until a sample lands here
}

type provSpan struct {
	from int
	prov provenance
}

// push appends an entry under prov and returns its chunk and slot.
func (q *sampleQueue) push(prov provenance) (*queueChunk, int) {
	if len(q.spans) == 0 || q.spans[len(q.spans)-1].prov != prov {
		q.spans = append(q.spans, provSpan{from: q.seq + q.n, prov: prov})
	}
	at := q.head + q.n
	if at/queueChunkLen == len(q.chunks) {
		q.chunks = append(q.chunks, &queueChunk{})
	}
	q.n++
	return q.chunks[at/queueChunkLen], at % queueChunkLen
}

// pushSample queues a sample recorded at t and returns the slot its
// vector is to be written into.
func (q *sampleQueue) pushSample(t time.Time, prov provenance) []float64 {
	c, i := q.push(prov)
	if c.xs == nil {
		c.xs = make([]float64, queueChunkLen*q.dim)
	}
	c.times[i], c.reset[i] = t, false
	return c.xs[i*q.dim : (i+1)*q.dim]
}

// pushReset queues a reset marker for an event at t.
func (q *sampleQueue) pushReset(t time.Time, prov provenance) {
	c, i := q.push(prov)
	c.times[i], c.reset[i] = t, true
}

// front returns the oldest entry: whether it is a reset marker, its
// time, its vector (nil for a marker) and its provenance.
func (q *sampleQueue) front() (reset bool, t time.Time, x []float64, prov provenance) {
	c, i := q.chunks[0], q.head
	if !c.reset[i] {
		x = c.xs[i*q.dim : (i+1)*q.dim]
	}
	return c.reset[i], c.times[i], x, q.spans[q.span].prov
}

// pop drops the oldest entry. Its vector stays readable until the next
// push.
func (q *sampleQueue) pop() {
	q.head++
	q.seq++
	q.n--
	if q.n == 0 {
		q.head, q.seq, q.spans, q.span = 0, 0, q.spans[:0], 0
		return
	}
	if q.head == queueChunkLen {
		done := q.chunks[0]
		copy(q.chunks, q.chunks[1:])
		q.chunks[len(q.chunks)-1] = done
		q.head = 0
	}
	for q.span+1 < len(q.spans) && q.spans[q.span+1].from <= q.seq {
		q.span++
	}
}

// compact drops the spans behind the oldest entry, so a queue that a
// run of fits keeps from emptying does not accumulate them.
func (q *sampleQueue) compact() {
	q.spans = q.spans[:copy(q.spans, q.spans[q.span:])]
	q.span = 0
}
