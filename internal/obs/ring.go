package obs

import (
	"encoding/json"
	"io"
	"sync"
)

// ringEntry is what a ring needs of its element type E: somewhere to
// put the assigned sequence number, and the vehicle lastFor filters on.
type ringEntry[E any] interface {
	*E
	setSeq(uint64)
	vehicle() string
}

// ring is the bounded, sequence-numbered ring behind Journal and
// EventLog: appends and reads are guarded by a mutex (alarms and
// control-plane events are orders of magnitude rarer than records, so
// neither is on the allocation-free hot path), reads are O(capacity),
// and an optional sink receives every entry as one JSON line.
type ring[E any, P ringEntry[E]] struct {
	mu   sync.Mutex
	buf  []E
	next uint64 // total appends ever; seq of the next entry
	sink io.Writer
}

// init sizes the ring to retain the last capacity entries (default 256
// when capacity <= 0).
func (r *ring[E, P]) init(capacity int) {
	if capacity <= 0 {
		capacity = 256
	}
	r.buf = make([]E, 0, capacity)
}

// setSink attaches the JSONL writer (nil detaches). Sink errors are
// ignored: journaling must never fail the path that journals.
func (r *ring[E, P]) setSink(w io.Writer) {
	r.mu.Lock()
	r.sink = w
	r.mu.Unlock()
}

// append stores e under the next sequence number.
func (r *ring[E, P]) append(e E) {
	r.mu.Lock()
	seq := r.next
	P(&e).setSeq(seq)
	r.next++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
	} else {
		r.buf[int(seq)%cap(r.buf)] = e
	}
	sink := r.sink
	r.mu.Unlock()
	if sink != nil {
		if b, err := json.Marshal(e); err == nil {
			sink.Write(append(b, '\n')) //nolint:errcheck // advisory sink
		}
	}
}

// total returns how many entries have ever been appended.
func (r *ring[E, P]) total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next
}

// last returns up to n most recent entries, oldest first (n <= 0 means
// all retained).
func (r *ring[E, P]) last(n int) []E {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n <= 0 || n > len(r.buf) {
		n = len(r.buf)
	}
	out := make([]E, 0, n)
	for i := 0; i < n; i++ {
		// Entries live at seq % cap; the oldest wanted seq is next-n.
		seq := r.next - uint64(n) + uint64(i)
		out = append(out, r.buf[int(seq)%cap(r.buf)])
	}
	return out
}

// lastFor returns up to n most recent retained entries for one vehicle,
// oldest first (n <= 0 means all retained). The ring is scanned under
// the mutex — bounded by capacity, not fleet size — so the per-vehicle
// read endpoints need no extra index maintained on the append path.
func (r *ring[E, P]) lastFor(vehicleID string, n int) []E {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []E
	for i := 0; i < len(r.buf); i++ {
		// Walk the oldest retained seq upwards so out stays ordered.
		seq := r.next - uint64(len(r.buf)) + uint64(i)
		if e := &r.buf[int(seq)%cap(r.buf)]; P(e).vehicle() == vehicleID {
			out = append(out, *e)
		}
	}
	if n > 0 && len(out) > n {
		out = out[len(out)-n:]
	}
	return out
}
