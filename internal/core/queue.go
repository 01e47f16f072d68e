package core

import "time"

// sampleQueue holds what a pipeline's transform stage emits until the
// pipeline's drain hands it to the detect stage — at once, or after the
// fit in flight lands: samples (record time, vector) and reset markers
// (event time), in arrival order, with the provenance each arrived under.
//
// Entries live in fixed-size chunks that are kept across fits: filling
// the queue never copies a sample, a chunk the drain has emptied moves
// to the back for reuse, and a warm fit-and-land cycle allocates
// nothing. A sample costs its vector, its time and a slice header (96
// bytes for the raw transform's six channels, against the 184-byte
// shard-queue envelope of its record). A chunk's times and vectors are
// laid out so that consecutive samples are a run the detect stage scores
// in place. Provenance changes once per ingest frame, not per record, so
// it is kept as spans: spans[k] covers the entries from sequence number
// spans[k].from up to the next span's.
type sampleQueue struct {
	dim    int           // vector width
	chunks []*queueChunk // chunks[0] holds the oldest entry
	head   int           // its slot in chunks[0]
	n      int           // entries queued
	seq    int           // its sequence number, counted since the queue was last empty
	spans  []provSpan
	span   int // the span covering the oldest entry
}

// queueChunkLen is the number of entries a chunk holds, so a run scored
// in place is at most runCap samples.
const queueChunkLen = runCap

type queueChunk struct {
	times [queueChunkLen]time.Time
	xs    [queueChunkLen][]float64 // a row of buf, or nil for a reset marker
	buf   []float64                // queueChunkLen rows of dim; nil until a sample lands here
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
	if c.buf == nil {
		c.buf = make([]float64, queueChunkLen*q.dim)
	}
	c.times[i], c.xs[i] = t, c.buf[i*q.dim:(i+1)*q.dim]
	return c.xs[i]
}

// pushReset queues a reset marker for an event at t.
func (q *sampleQueue) pushReset(t time.Time, prov provenance) {
	c, i := q.push(prov)
	c.times[i], c.xs[i] = t, nil
}

// front returns the oldest entry's time and vector (nil for a reset
// marker).
func (q *sampleQueue) front() (time.Time, []float64) {
	c, i := q.chunks[0], q.head
	return c.times[i], c.xs[i]
}

// run returns the samples at the front that score as one run — those
// up to the next reset marker, provenance change or chunk end — with
// their provenance. The front must be a sample. The slices stay
// readable until the next push.
func (q *sampleQueue) run() ([]time.Time, [][]float64, provenance) {
	c, i := q.chunks[0], q.head
	end := min(queueChunkLen, i+q.n)
	if q.span+1 < len(q.spans) {
		end = min(end, i+q.spans[q.span+1].from-q.seq)
	}
	j := i + 1
	for j < end && c.xs[j] != nil {
		j++
	}
	return c.times[i:j], c.xs[i:j], q.spans[q.span].prov
}

// pop drops the k oldest entries, all in chunks[0]. Their vectors stay
// readable until the next push.
func (q *sampleQueue) pop(k int) {
	q.head += k
	q.seq += k
	q.n -= k
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
