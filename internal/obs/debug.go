package obs

import (
	"encoding/json"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
)

// DebugConfig assembles the debug HTTP endpoint.
type DebugConfig struct {
	// Registry backs /metrics. Optional: without it /metrics serves an
	// empty exposition.
	Registry *Registry
	// Journal backs the journal section of /fleet. Optional.
	Journal *Journal
	// FleetStatus, when non-nil, is called per /fleet request and
	// marshaled into the response's "engine" field — wire it to
	// fleet.Engine.Stats.
	FleetStatus func() any
	// Placement, when non-nil, is called per /fleet request and
	// marshaled into the response's "placement" field — the
	// control-plane view (ring owners, cordons, migrations) that pairs
	// with the data-plane engine stats. Serving layers running with
	// peers wire it to their placement snapshot; single-instance
	// deployments leave it nil and the field is omitted.
	Placement func() any
	// JournalN is the default number of journal entries /fleet returns
	// (override per request with ?n=; default 32).
	JournalN int
}

// NewDebugMux builds the debug endpoint's routes:
//
//	/metrics        Prometheus text exposition of Registry
//	/debug/vars     Go's standard expvar (memstats, cmdline)
//	/debug/pprof/*  the standard pprof handlers
//	/fleet          JSON: engine status + last N alarm-journal entries
func NewDebugMux(cfg DebugConfig) *http.ServeMux {
	if cfg.JournalN <= 0 {
		cfg.JournalN = 32
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if cfg.Registry != nil {
			cfg.Registry.WritePrometheus(w) //nolint:errcheck // client went away
		}
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/fleet", func(w http.ResponseWriter, r *http.Request) {
		n := cfg.JournalN
		if q := r.URL.Query().Get("n"); q != "" {
			if v, err := strconv.Atoi(q); err == nil && v > 0 {
				n = v
			}
		}
		resp := fleetStatus{}
		if cfg.FleetStatus != nil {
			resp.Engine = cfg.FleetStatus()
		}
		if cfg.Placement != nil {
			resp.Placement = cfg.Placement()
		}
		if cfg.Journal != nil {
			resp.JournalTotal = cfg.Journal.Total()
			resp.Journal = cfg.Journal.Last(n)
		}
		if resp.Journal == nil {
			resp.Journal = []AlarmEvent{}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(resp) //nolint:errcheck // client went away
	})
	return mux
}

// fleetStatus is the /fleet response shape.
type fleetStatus struct {
	Engine       any          `json:"engine,omitempty"`
	Placement    any          `json:"placement,omitempty"`
	JournalTotal uint64       `json:"journal_total"`
	Journal      []AlarmEvent `json:"journal"`
}

// DebugServer is a running debug endpoint.
type DebugServer struct {
	srv *http.Server
	lis net.Listener
}

// StartDebugServer listens on addr (":8080", "127.0.0.1:0", ...) and
// serves the debug mux in a background goroutine until Close.
func StartDebugServer(addr string, cfg DebugConfig) (*DebugServer, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: NewDebugMux(cfg)}
	go srv.Serve(lis) //nolint:errcheck // ErrServerClosed after Close
	return &DebugServer{srv: srv, lis: lis}, nil
}

// Addr returns the bound address (resolves ":0" to the real port).
func (s *DebugServer) Addr() string { return s.lis.Addr().String() }

// Close stops the server.
func (s *DebugServer) Close() error { return s.srv.Close() }
