package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"regexp"
	"sync"
	"testing"
)

// TestEventLogRingAndSeq pins the ring semantics shared with the alarm
// Journal: monotone sequence numbers survive wraparound, Last returns
// the newest entries oldest-first, and Total counts every append ever.
func TestEventLogRingAndSeq(t *testing.T) {
	l := NewEventLog(4, nil)
	for i := 0; i < 10; i++ {
		l.Record(ControlEvent{Kind: EventCordon, VehicleID: fmt.Sprintf("veh-%02d", i)})
	}
	if got := l.Total(); got != 10 {
		t.Fatalf("Total = %d, want 10", got)
	}
	last := l.Last(0)
	if len(last) != 4 {
		t.Fatalf("Last(0) returned %d entries, want the 4 retained", len(last))
	}
	for i, e := range last {
		if want := uint64(6 + i); e.Seq != want {
			t.Fatalf("entry %d has Seq %d, want %d", i, e.Seq, want)
		}
		if want := fmt.Sprintf("veh-%02d", 6+i); e.VehicleID != want {
			t.Fatalf("entry %d is %s, want %s", i, e.VehicleID, want)
		}
		if e.Time.IsZero() {
			t.Fatalf("entry %d missing auto-stamped time", i)
		}
	}
	if got := l.Last(2); len(got) != 2 || got[1].Seq != 9 {
		t.Fatalf("Last(2) = %+v, want the 2 newest ending at Seq 9", got)
	}
	if got := l.Last(99); len(got) != 4 {
		t.Fatalf("Last(99) returned %d entries, want 4", len(got))
	}
}

// TestEventLogLastFor pins the per-vehicle audit view used by
// /admin/events?vehicle=.
func TestEventLogLastFor(t *testing.T) {
	l := NewEventLog(8, nil)
	for i := 0; i < 6; i++ {
		l.Record(ControlEvent{Kind: EventDrainStart, VehicleID: fmt.Sprintf("veh-%02d", i%2)})
	}
	got := l.LastFor("veh-01", 0)
	if len(got) != 3 {
		t.Fatalf("LastFor(veh-01) returned %d entries, want 3", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Seq <= got[i-1].Seq {
			t.Fatalf("LastFor not oldest-first: %d then %d", got[i-1].Seq, got[i].Seq)
		}
	}
	if capped := l.LastFor("veh-01", 1); len(capped) != 1 || capped[0].Seq != got[2].Seq {
		t.Fatalf("LastFor cap kept %+v, want only the newest", capped)
	}
	if stranger := l.LastFor("veh-99", 0); len(stranger) != 0 {
		t.Fatalf("LastFor(veh-99) = %+v, want none", stranger)
	}
}

// TestEventLogCountersAndSink pins the export surface: every append
// increments pdm_ctrl_events_total for its kind, and an attached sink
// receives each event as one well-formed JSON line.
func TestEventLogCountersAndSink(t *testing.T) {
	reg := NewRegistry()
	l := NewEventLog(4, reg)
	var sink bytes.Buffer
	l.SetSink(&sink)
	for i := 0; i < 3; i++ {
		l.Record(ControlEvent{Kind: EventAdopt, Engine: "a", Peer: "b", VehicleID: "veh-00"})
	}
	l.Record(ControlEvent{Kind: EventPeerConflict, Engine: "a", Peer: "b", Detail: "409"})

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, re := range []string{
		`pdm_ctrl_events_total\{kind="adopt"\} 3\b`,
		`pdm_ctrl_events_total\{kind="peer-conflict"\} 1\b`,
	} {
		if !regexp.MustCompile(re).MatchString(buf.String()) {
			t.Fatalf("exposition missing %s in:\n%s", re, buf.String())
		}
	}

	lines := 0
	sc := bufio.NewScanner(&sink)
	for sc.Scan() {
		var e ControlEvent
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("sink line %d not JSON: %v", lines, err)
		}
		if e.Kind == "" {
			t.Fatalf("sink line %d lost its kind", lines)
		}
		lines++
	}
	if lines != 4 {
		t.Fatalf("sink received %d lines, want 4", lines)
	}
}

// TestEventLogNilSafety mirrors the Observer's nil contract: every
// method must be a no-op on a nil log, so control-plane call sites
// need no log-enabled branch.
func TestEventLogNilSafety(t *testing.T) {
	var l *EventLog
	l.Record(ControlEvent{Kind: EventCordon})
	l.SetSink(&bytes.Buffer{})
	if l.Total() != 0 || l.Last(5) != nil || l.LastFor("veh-00", 5) != nil {
		t.Fatal("nil EventLog leaked state")
	}
}

// TestEventLogConcurrent hammers one log from concurrent recorders and
// readers. Run under `go test -race` this is the data-race gate; the
// final sequence accounting proves no append was lost or duplicated.
func TestEventLogConcurrent(t *testing.T) {
	reg := NewRegistry()
	l := NewEventLog(16, reg)
	const writers, perWriter = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				l.Record(ControlEvent{
					Kind:      []string{EventDrainStart, EventDrainFinish, EventCordon, EventUncordon}[i%4],
					Engine:    fmt.Sprintf("eng-%d", w),
					VehicleID: fmt.Sprintf("veh-%02d", i%8),
				})
			}
		}()
	}
	readers := make(chan struct{})
	go func() {
		defer close(readers)
		for i := 0; i < 50; i++ {
			if got := len(l.Last(0)); got > 16 {
				t.Errorf("Last(0) returned %d entries from a 16-slot ring", got)
				return
			}
			l.LastFor("veh-03", 4)
			l.Total()
		}
	}()
	wg.Wait()
	<-readers

	if got := l.Total(); got != writers*perWriter {
		t.Fatalf("Total = %d, want %d", got, writers*perWriter)
	}
	last := l.Last(0)
	if len(last) != 16 {
		t.Fatalf("retained %d entries, want 16", len(last))
	}
	seen := map[uint64]bool{}
	for i, e := range last {
		if i > 0 && e.Seq != last[i-1].Seq+1 {
			t.Fatalf("retained window not contiguous: Seq %d after %d", e.Seq, last[i-1].Seq)
		}
		if seen[e.Seq] {
			t.Fatalf("duplicate Seq %d in retained window", e.Seq)
		}
		seen[e.Seq] = true
	}
	if newest := last[len(last)-1].Seq; newest != writers*perWriter-1 {
		t.Fatalf("newest retained Seq %d, want %d", newest, writers*perWriter-1)
	}
}
