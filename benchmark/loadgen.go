package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"
)

// clock is the time source of the open-loop scheduler; tests drive it
// with a fake.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { preciseSleep(d) }

// runSchedule is the open loop: request i is due at start + i*interval
// whatever the system under test does. One connection sends them in
// order, so a slow response delays the requests behind it — and because
// every latency is timed from the due time, that wait is counted, not
// hidden. do sends request i and returns when its response is read.
//
// late[i] is how late the generator itself ran: how long after request
// i could first have gone out — its due time, or the previous response
// if that came later — it actually did. Waiting for a slow response is
// the system's doing and shows in the latencies; oversleeping is the
// generator's and shows here.
func runSchedule(ctx context.Context, clk clock, start time.Time, interval time.Duration, n int,
	do func(i int, due time.Time)) (late []time.Duration) {
	late = make([]time.Duration, 0, n)
	free := start
	for i := 0; i < n && ctx.Err() == nil; i++ {
		due := start.Add(time.Duration(i) * interval)
		if wait := due.Sub(clk.Now()); wait > 0 {
			clk.Sleep(wait)
		}
		ready := due
		if free.After(ready) {
			ready = free
		}
		late = append(late, clk.Now().Sub(ready))
		do(i, due)
		free = clk.Now()
	}
	return late
}

// conn is one keep-alive HTTP connection to the server: a client whose
// transport may hold exactly one.
type conn struct {
	client *http.Client
	base   string
	// counters the serve layer reports, shared by every conn of a run
	tally *httpTally
}

// httpTally counts what the client side of the socket saw.
type httpTally struct {
	requests  atomic.Int64
	status4xx atomic.Int64
	status5xx atomic.Int64
	failed    atomic.Int64 // transport errors and non-2xx
}

func newConn(base string, tally *httpTally) *conn {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &conn{client: &http.Client{Transport: tr, Timeout: 30 * time.Second}, base: base, tally: tally}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// roundTrip sends one request and reads the whole response, returning
// the time the body was fully read. Any transport error or non-2xx
// status counts as a failed operation.
func (c *conn) roundTrip(req *http.Request) (done time.Time, body []byte, err error) {
	c.tally.requests.Add(1)
	resp, err := c.client.Do(req)
	if err != nil {
		c.tally.failed.Add(1)
		return time.Now(), nil, err
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	done = time.Now()
	switch {
	case err != nil:
		c.tally.failed.Add(1)
		return done, nil, err
	case resp.StatusCode/100 == 4:
		c.tally.status4xx.Add(1)
	case resp.StatusCode/100 == 5:
		c.tally.status5xx.Add(1)
	}
	if resp.StatusCode/100 != 2 {
		c.tally.failed.Add(1)
		return done, body, fmt.Errorf("%s %s: %s: %s", req.Method, req.URL.Path, resp.Status, bytes.TrimSpace(body))
	}
	return done, body, nil
}

// post sends one NVWIRE1 frame to /ingest.
func (c *conn) post(ctx context.Context, frame []byte) (time.Time, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/ingest", bytes.NewReader(frame))
	if err != nil {
		return time.Now(), err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	done, _, err := c.roundTrip(req)
	return done, err
}

// get fetches one read endpoint.
func (c *conn) get(ctx context.Context, path string) (time.Time, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return time.Now(), nil, err
	}
	return c.roundTrip(req)
}

// firstErr keeps the first error any goroutine of a run reports.
type firstErr struct {
	v atomic.Pointer[error]
}

func (f *firstErr) set(err error) {
	if err != nil {
		f.v.CompareAndSwap(nil, &err)
	}
}

func (f *firstErr) get() error {
	if p := f.v.Load(); p != nil {
		return *p
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
