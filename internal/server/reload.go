package server

import (
	"errors"
	"net/http"
	"time"

	"detective/internal/kb"
	"detective/internal/telemetry"
)

// Store exposes the server's KB store, e.g. for tests or callers that
// swap graphs directly rather than through the canary.
func (s *Server) Store() *kb.Store { return s.store }

// reloadResponse is the JSON shape of POST /reload.
type reloadResponse struct {
	Generation  int64   `json:"generation"`
	Swaps       int64   `json:"swaps"`
	LoadSeconds float64 `json:"loadSeconds"`
	Nodes       int     `json:"nodes"`
	Triples     int     `json:"triples"`
	// Delta reports whether this reload applied an incremental DKBD
	// delta (POST /reload?delta=1) rather than re-reading the full KB
	// file; DeltaOps is the number of ops the delta carried. For delta
	// reloads LoadSeconds is the delta apply time.
	Delta    bool `json:"delta,omitempty"`
	DeltaOps int  `json:"deltaOps,omitempty"`
	// Canary carries the integrity-check and shadow-replay results the
	// staged reload based its promote/reject decision on.
	Canary *CanaryReport `json:"canary,omitempty"`
}

// ReloadHandler returns the admin POST /reload handler for the ops
// mux (it is deliberately not registered on the public listener). On
// each request it calls load — typically re-reading the -kb or
// -kb-snapshot file — and, on success, stages the result through the
// canary pipeline (integrity self-check, shadow replay, watchdog) via
// StageReloadKB. Load failures answer 500 and canary rejections 409;
// both leave the serving graph untouched, so a bad file on disk — or
// a structurally broken graph inside a well-formed file — can never
// take down a healthy server.
func (s *Server) ReloadHandler(load func() (*kb.Graph, error)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		if r.URL.Query().Get("delta") == "1" {
			s.handleDeltaReload(w, r)
			return
		}
		start := time.Now()
		g, err := load()
		if err != nil {
			s.log.Error("kb reload failed; keeping current graph",
				"error", err,
				"request_id", telemetry.RequestID(r.Context()))
			writeError(w, http.StatusInternalServerError, "reload failed: %v", err)
			return
		}
		loadTime := time.Since(start)
		gen, rep, err := s.StageReloadKB(g, loadTime)
		if err != nil {
			status := http.StatusInternalServerError
			if errors.Is(err, ErrCanaryRejected) {
				status = http.StatusConflict
			}
			s.log.Error("kb reload rejected; keeping current graph",
				"error", err,
				"request_id", telemetry.RequestID(r.Context()))
			writeError(w, status, "reload rejected: %v", err)
			return
		}
		writeJSON(w, reloadResponse{
			Generation:  gen,
			Swaps:       s.store.Swaps(),
			LoadSeconds: loadTime.Seconds(),
			Nodes:       g.NumNodes(),
			Triples:     g.NumTriples(),
			Canary:      rep,
		})
	})
}

// handleDeltaReload serves POST /reload?delta=1: the request body is a
// DKBD delta (kbtool diff old.dkbs new.dkbs) applied to the serving
// graph, then staged through the same canary pipeline as a full
// reload. A malformed body answers 400, a delta built against a
// different base graph — or a canary rejection — 409, and every
// failure leaves the serving graph untouched.
func (s *Server) handleDeltaReload(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	d, err := kb.ReadDelta(body)
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.tooLargeTotal.Inc()
			status = http.StatusRequestEntityTooLarge
		}
		s.log.Error("kb delta reload: bad body; keeping current graph",
			"error", err,
			"request_id", telemetry.RequestID(r.Context()))
		writeError(w, status, "reading delta: %v", err)
		return
	}
	gen, rep, err := s.StageReloadDelta(d)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, ErrCanaryRejected) || errors.Is(err, kb.ErrDeltaBaseMismatch) {
			status = http.StatusConflict
		}
		s.log.Error("kb delta reload rejected; keeping current graph",
			"error", err,
			"request_id", telemetry.RequestID(r.Context()))
		writeError(w, status, "delta reload rejected: %v", err)
		return
	}
	g := s.store.Graph()
	writeJSON(w, reloadResponse{
		Generation:  gen,
		Swaps:       s.store.Swaps(),
		LoadSeconds: s.deltaApplySeconds.Value(),
		Nodes:       g.NumNodes(),
		Triples:     g.NumTriples(),
		Delta:       true,
		DeltaOps:    d.Ops(),
		Canary:      rep,
	})
}
