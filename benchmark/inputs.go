package main

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"github.com/navarchos/pdm"
	"github.com/navarchos/pdm/internal/core"
	"github.com/navarchos/pdm/internal/eval"
	"github.com/navarchos/pdm/internal/fleetsim"
	"github.com/navarchos/pdm/internal/obd"
	"github.com/navarchos/pdm/internal/timeseries"
	"github.com/navarchos/pdm/internal/wire"
)

// Sizes every workload is defined at. smoke is ~1/20 of full: it
// exists so the harness cannot rot (TestSmoke), not to be measured.
const (
	scaleFull  = "full"
	scaleSmoke = "smoke"
)

const (
	burstFrameItems = 512
	pacedFrameItems = 64
	pacedFramesPerS = 1250
	pacedReadsPerS  = 50
	// pacedFactor lowers serve's threshold factor so the paced run
	// raises >= 2000 alarms at seed 1: enough samples for a p95.
	pacedFactor = 4
	// serveFactor is navarchos-serve's default -factor.
	serveFactor = 14
)

// fleetConfig is the synthetic fleet a workload runs on.
func fleetConfig(workload, scale string, seed int64) fleetsim.Config {
	var c fleetsim.Config
	switch workload {
	case wlBurst: // fleet400: the working set is 10x fleet40
		c = fleetsim.BenchConfig()
		c.NumVehicles, c.Days = 400, 100
		if scale == scaleSmoke {
			c.NumVehicles, c.Days = 40, 50
		}
	case wlPaced, wlScore: // fleet40
		c = fleetsim.BenchConfig()
		if scale == scaleSmoke {
			c.NumVehicles, c.Days = 8, 60
			if workload == wlScore { // TranAD is ~50x the cost per record
				c.NumVehicles, c.Days = 4, 40
			}
		}
	case wlGrid:
		c = fleetsim.SmallConfig()
		if scale == scaleSmoke {
			c.NumVehicles, c.Days = 4, 60
		}
	}
	c.Seed = seed
	return c
}

// servePipeline is navarchos-serve's per-vehicle configuration
// (correlation x closest-pair, its only pipeline) through the public pdm
// API: the paper's complete solution with serve's -factor. It is the
// reference the server's journal is verified against, and the pipeline
// the in-process legs of ingest_* and grid_eval run (the grid itself
// runs sixteen; this is the one the paper recommends).
func servePipeline(factor float64, o *pdm.Observer) func(string) (pdm.PipelineConfig, error) {
	return func(string) (pdm.PipelineConfig, error) {
		cfg, err := pdm.DefaultPipelineConfig()
		cfg.Thresholder = pdm.NewSelfTuningThreshold(factor)
		cfg.Observer = o
		return cfg, err
	}
}

func keepAll(*pdm.Record) bool { return true }

// tranadPipeline is score_heavy's configuration: raw x TranAD with
// eval.NewDetector's defaults and no filter, so every record past the
// 900-sample profile is scored.
func tranadPipeline(seed int64, o *pdm.Observer) func(string) (pdm.PipelineConfig, error) {
	return func(string) (pdm.PipelineConfig, error) {
		tr, err := pdm.NewTransformer(pdm.Raw, 12)
		if err != nil {
			return pdm.PipelineConfig{}, err
		}
		det, err := eval.NewDetector(eval.TranAD, tr.FeatureNames(), seed)
		if err != nil {
			return pdm.PipelineConfig{}, err
		}
		return pdm.PipelineConfig{
			Transformer:   tr,
			Detector:      det,
			Thresholder:   pdm.NewSelfTuningThreshold(10),
			ProfileLength: 900,
			Filter:        keepAll,
			Observer:      o,
		}, nil
	}
}

// gridSpec is eval.RunGrid with defaults: 4 paper techniques x 4 paper
// transforms x 2 PH x 2 settings = 64 cells.
func gridSpec(f *fleetsim.Fleet, parallelism int) eval.GridSpec {
	return eval.GridSpec{
		Records: f.Records,
		Events:  f.Events,
		Settings: map[string][]string{
			"setting26": f.EventVehicleIDs(),
			"setting40": f.AllVehicleIDs(),
		},
		Seed:        f.Config.Seed,
		Parallelism: parallelism,
	}
}

// frameSet is one connection's input: NVWIRE1 frames in send order.
type frameSet struct {
	frames  [][]byte // one complete frame each, sub-slices of one buffer
	records []int    // records per frame
	events  []int    // events per frame
	bytes   int
	nRec    int
	nEv     int
}

// splitFrames cuts a back-to-back NVWIRE1 stream into its frames using
// only the length prefix, so each frame can travel as its own POST.
func splitFrames(stream []byte) ([][]byte, error) {
	var frames [][]byte
	for off := 0; off < len(stream); {
		rest := stream[off:]
		if len(rest) < wire.HeaderSize {
			return nil, fmt.Errorf("split: %d trailing bytes at offset %d are shorter than a header", len(rest), off)
		}
		if string(rest[:4]) != wire.Magic {
			return nil, fmt.Errorf("split: bad magic at offset %d", off)
		}
		n := wire.HeaderSize + int(binary.LittleEndian.Uint32(rest[6:]))
		if n > len(rest) {
			return nil, fmt.Errorf("split: frame at offset %d claims %d bytes, %d remain", off, n, len(rest))
		}
		frames = append(frames, rest[:n:n])
		off += n
	}
	return frames, nil
}

// partitionOf assigns each vehicle to one of n partitions, round-robin
// over the sorted IDs so partitions carry near-equal vehicle counts.
func partitionOf(records []timeseries.Record, events []obd.Event, n int) map[string]int {
	seen := map[string]bool{}
	for i := range records {
		seen[records[i].VehicleID] = true
	}
	for i := range events {
		seen[events[i].VehicleID] = true
	}
	ids := make([]string, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	part := make(map[string]int, len(ids))
	for i, id := range ids {
		part[id] = i % n
	}
	return part
}

// frameRef locates a frame: which connection sends it, and its place in
// that connection's order.
type frameRef struct{ part, frame int32 }

// frameIndex answers "which frame carried this record" for any record
// named the way an alarm names it: vehicle and minute. Vehicles report
// once a minute, so the pair identifies the record. Per vehicle the
// minutes ascend (the per-vehicle order every partition preserves), so
// a lookup is a binary search.
type frameIndex map[string]*vehicleFrames

type vehicleFrames struct {
	minutes []int64
	refs    []frameRef
}

func minuteOf(t time.Time) int64 { return t.Unix() / 60 }

func (idx frameIndex) add(b *wire.Batch, ref frameRef) {
	for i := range b.Records {
		r := &b.Records[i]
		vf := idx[r.VehicleID]
		if vf == nil {
			vf = &vehicleFrames{}
			idx[r.VehicleID] = vf
		}
		vf.minutes = append(vf.minutes, minuteOf(r.Time))
		vf.refs = append(vf.refs, ref)
	}
}

func (idx frameIndex) lookup(vehicle string, minute int64) (frameRef, bool) {
	vf := idx[vehicle]
	if vf == nil {
		return frameRef{}, false
	}
	i := sort.Search(len(vf.minutes), func(i int) bool { return vf.minutes[i] >= minute })
	if i == len(vf.minutes) || vf.minutes[i] != minute {
		return frameRef{}, false
	}
	return vf.refs[i], true
}

// encodePartitions frames the fleet as n disjoint vehicle partitions,
// perFrame items per frame. Each partition is the chronological merge
// of its vehicles' records and events (events before same-timestamp
// records, as wire.EncodeStream and Engine.Replay order them), so every
// vehicle's items stay in order inside the one connection that owns it.
// Every frame is decoded once to count its contents and fill the index.
func encodePartitions(records []timeseries.Record, events []obd.Event, perFrame, n int) ([]*frameSet, frameIndex, error) {
	part := partitionOf(records, events, n)
	encs := make([]wire.Encoder, n)
	cut := func(e *wire.Encoder) error {
		if e.Count() >= perFrame {
			e.End()
		}
		return e.Err()
	}
	err := core.Merged("", records, events,
		func(ev obd.Event) error {
			e := &encs[part[ev.VehicleID]]
			e.Event(&ev)
			return cut(e)
		},
		func(r timeseries.Record) error {
			e := &encs[part[r.VehicleID]]
			e.Record(&r)
			return cut(e)
		})
	if err != nil {
		return nil, nil, err
	}
	sets := make([]*frameSet, n)
	idx := frameIndex{}
	var dec wire.Decoder
	var b wire.Batch
	for p := range encs {
		encs[p].End()
		stream := encs[p].Bytes()
		frames, err := splitFrames(stream)
		if err != nil {
			return nil, nil, err
		}
		fs := &frameSet{frames: frames, bytes: len(stream),
			records: make([]int, len(frames)), events: make([]int, len(frames))}
		for i, fr := range frames {
			b.Reset()
			if _, err := dec.DecodeInto(fr, &b); err != nil {
				return nil, nil, fmt.Errorf("frame %d of partition %d does not decode: %w", i, p, err)
			}
			fs.records[i], fs.events[i] = len(b.Records), len(b.Events)
			fs.nRec += len(b.Records)
			fs.nEv += len(b.Events)
			idx.add(&b, frameRef{int32(p), int32(i)})
		}
		sets[p] = fs
	}
	return sets, idx, nil
}

// prefix is the first n frames as a frame set of their own.
func (fs *frameSet) prefix(n int) *frameSet {
	out := &frameSet{frames: fs.frames[:n], records: fs.records[:n], events: fs.events[:n]}
	for i := 0; i < n; i++ {
		out.bytes += len(fs.frames[i])
		out.nRec += fs.records[i]
		out.nEv += fs.events[i]
	}
	return out
}

// byVehicle groups a fleet's records and events per vehicle, sorted by
// ID: the input of the per-vehicle legs and of core.RunVehicle.
type vehicleStream struct {
	id      string
	records []timeseries.Record
	events  []obd.Event
}

func byVehicle(records []timeseries.Record, events []obd.Event) []vehicleStream {
	at := map[string]int{}
	var out []vehicleStream
	slot := func(id string) *vehicleStream {
		i, ok := at[id]
		if !ok {
			i = len(out)
			at[id] = i
			out = append(out, vehicleStream{id: id})
		}
		return &out[i]
	}
	for i := range records {
		s := slot(records[i].VehicleID)
		s.records = append(s.records, records[i])
	}
	for i := range events {
		s := slot(events[i].VehicleID)
		s.events = append(s.events, events[i])
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}
