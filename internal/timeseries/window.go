package timeseries

import "github.com/navarchos/pdm/internal/obd"

// Window is a fixed-capacity sliding window of records used by the data
// transformations: new records push the oldest out once the window is
// full.
type Window struct {
	size int
	buf  []Record
	next int
	full bool
}

// NewWindow returns a sliding window holding up to size records. size
// must be positive; NewWindow panics otherwise, since a zero-size window
// is a programming error.
func NewWindow(size int) *Window {
	if size <= 0 {
		panic("timeseries: NewWindow: size must be positive")
	}
	return &Window{size: size, buf: make([]Record, size)}
}

// Push adds a record, evicting the oldest if the window is full.
func (w *Window) Push(r Record) {
	w.buf[w.next] = r
	w.next = (w.next + 1) % w.size
	if w.next == 0 {
		w.full = true
	}
}

// Len returns the number of records currently held.
func (w *Window) Len() int {
	if w.full {
		return w.size
	}
	return w.next
}

// Full reports whether the window has reached capacity.
func (w *Window) Full() bool { return w.full }

// Reset empties the window.
func (w *Window) Reset() {
	w.next = 0
	w.full = false
}

// Records returns the window contents oldest-first as a fresh slice.
func (w *Window) Records() []Record {
	n := w.Len()
	out := make([]Record, 0, n)
	if w.full {
		out = append(out, w.buf[w.next:]...)
		out = append(out, w.buf[:w.next]...)
		return out
	}
	out = append(out, w.buf[:w.next]...)
	return out
}

// Columns returns all PID columns as a [NumPIDs][]float64 matrix,
// oldest-first.
func (w *Window) Columns() [][]float64 {
	out := make([][]float64, obd.NumPIDs)
	recs := w.Records()
	for p := 0; p < int(obd.NumPIDs); p++ {
		col := make([]float64, len(recs))
		for i := range recs {
			col[i] = recs[i].Values[p]
		}
		out[p] = col
	}
	return out
}
