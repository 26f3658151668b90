package server

// Multi-tenant serving: a TenantMux routes /v1/{tenant}/... requests
// to per-tenant Servers supplied by a TenantResolver (implemented by
// internal/registry). Each tenant keeps its own engine, caches,
// concurrency limit, canary and breaker — the mux only resolves the
// name, pins the tenant's residency for the request's duration, and
// delegates with the tenant prefix stripped, so every single-tenant
// endpoint (/clean, /explain, /rules, /stats, /healthz, /readyz)
// works unchanged under its tenant prefix. The tenant named
// DefaultTenant also answers the root routes (/clean, /explain,
// /rules, /stats, /readyz), so a one-relation deployment keeps the
// unprefixed paths.
//
// The admin variant additionally serves the tenant-scoped KB
// lifecycle — POST /v1/{tenant}/reload and /v1/{tenant}/rollback, plus
// /reload and /rollback for DefaultTenant — and belongs on the ops
// listener only.

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"

	"detective/internal/kb"
)

// DefaultTenant names the tenant that serves the root routes:
// cmd/detectived's flag mode runs its one relation under this name.
const DefaultTenant = "default"

// rootRoutes are the routes DefaultTenant answers without the
// /v1/{tenant} prefix. /reload and /rollback reach the KB lifecycle on
// the admin mux only; on the public mux the tenant's server 404s them.
var rootRoutes = map[string]bool{
	"/clean": true, "/explain": true, "/rules": true, "/stats": true, "/readyz": true,
	"/reload": true, "/rollback": true,
}

// ErrUnknownTenant is returned by TenantResolver.Tenant for names not
// in the registry's configuration; the mux answers it with 404.
var ErrUnknownTenant = errors.New("unknown tenant")

// TenantResolver resolves tenant names to their serving Servers. The
// release func pins the tenant resident until the request completes;
// it must be called exactly once (calling it more is a no-op).
type TenantResolver interface {
	// Tenant returns the server for name, admitting (loading) the
	// tenant first when it is configured but not resident. Unknown
	// names return an error wrapping ErrUnknownTenant.
	Tenant(name string) (*Server, func(), error)
	// TenantNames lists every configured tenant, sorted.
	TenantNames() []string
}

// TenantAdmin extends a resolver with the per-tenant KB loader the
// admin mux needs to serve POST /v1/{tenant}/reload.
type TenantAdmin interface {
	TenantResolver
	// TenantLoader returns a function that re-reads name's KB from its
	// configured source (snapshot or text file).
	TenantLoader(name string) func() (*kb.Graph, error)
}

// TenantMux is the http.Handler of a multi-tenant listener.
type TenantMux struct {
	res   TenantResolver
	admin TenantAdmin // non-nil only on the ops variant
	log   *slog.Logger
}

// NewTenantMux returns the public multi-tenant handler: /v1 lists
// tenants, /v1/{tenant}/... delegates to the tenant's server, the root
// routes delegate to DefaultTenant, and everything else — unknown
// routes and unknown tenants alike — gets a JSON 404 envelope. KB
// lifecycle endpoints are not exposed.
func NewTenantMux(res TenantResolver, log *slog.Logger) *TenantMux {
	if log == nil {
		log = slog.Default()
	}
	return &TenantMux{res: res, log: log}
}

// NewTenantAdminMux returns the ops-listener variant: everything the
// public mux serves plus POST /v1/{tenant}/reload (staged canary
// reload from the tenant's configured source, or a DKBD delta with
// ?delta=1) and POST /v1/{tenant}/rollback, each also at the root for
// DefaultTenant.
func NewTenantAdminMux(res TenantAdmin, log *slog.Logger) *TenantMux {
	tm := NewTenantMux(res, log)
	tm.admin = res
	return tm
}

// tenantIndex is the JSON shape of GET /v1.
type tenantIndex struct {
	Tenants []string `json:"tenants"`
}

func (tm *TenantMux) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	path := r.URL.Path
	switch {
	case path == "/healthz":
		// Process liveness, tenant-independent: load balancers health-
		// check the listener, not any one tenant.
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	case path == "/v1" || path == "/v1/":
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		writeJSON(w, tenantIndex{Tenants: tm.res.TenantNames()})
	case strings.HasPrefix(path, "/v1/"):
		name, rest, _ := strings.Cut(path[len("/v1/"):], "/")
		if name == "" {
			writeError(w, http.StatusNotFound, "no tenant in path %q", path)
			return
		}
		tm.serve(w, stripTenantPrefix(r, "/"+rest), name)
	case rootRoutes[path]:
		tm.serve(w, r, DefaultTenant)
	default:
		writeError(w, http.StatusNotFound, "no such route %q", path)
	}
}

// serve resolves the named tenant and hands it r, whose path is
// already tenant-relative. The admin variant routes /reload and
// /rollback to the tenant's KB lifecycle handlers.
func (tm *TenantMux) serve(w http.ResponseWriter, r *http.Request, name string) {
	s, release, err := tm.res.Tenant(name)
	if err != nil {
		if errors.Is(err, ErrUnknownTenant) {
			writeError(w, http.StatusNotFound, "unknown tenant %q", name)
			return
		}
		tm.log.Error("tenant admission failed",
			slog.String("tenant", name),
			slog.String("path", r.URL.Path),
			slog.Any("error", err))
		writeError(w, http.StatusServiceUnavailable, "tenant %q unavailable: %v", name, err)
		return
	}
	defer release()
	switch {
	case tm.admin != nil && r.URL.Path == "/reload":
		s.ReloadHandler(tm.admin.TenantLoader(name)).ServeHTTP(w, r)
	case tm.admin != nil && r.URL.Path == "/rollback":
		s.RollbackHandler().ServeHTTP(w, r)
	default:
		s.ServeHTTP(w, r)
	}
}

// stripTenantPrefix rewrites the request path from /v1/{tenant}/rest
// to /rest so the tenant's single-tenant mux patterns match.
func stripTenantPrefix(r *http.Request, rest string) *http.Request {
	r2 := new(http.Request)
	*r2 = *r
	u2 := *r.URL
	u2.Path = rest
	if u2.RawPath != "" {
		// The escaped form no longer corresponds; drop it so URL.Path
		// is authoritative.
		u2.RawPath = ""
	}
	r2.URL = &u2
	return r2
}

// jsonErrorWriter rewrites http.ServeMux's built-in plain-text 404
// (unknown route) and 405 (wrong method) bodies into the JSON error
// envelope every other error response uses. Handler-originated
// responses pass through untouched: the rewrite only triggers on an
// error status whose Content-Type is the text/plain that
// http.Error — and nothing else in this package — sets.
type jsonErrorWriter struct {
	http.ResponseWriter
	intercepted bool
}

func (w *jsonErrorWriter) WriteHeader(status int) {
	if (status == http.StatusNotFound || status == http.StatusMethodNotAllowed) &&
		strings.HasPrefix(w.Header().Get("Content-Type"), "text/plain") {
		msg := "no such route"
		if status == http.StatusMethodNotAllowed {
			msg = "method not allowed"
			if allow := w.Header().Get("Allow"); allow != "" {
				msg = "method not allowed (allowed: " + allow + ")"
			}
		}
		body, err := json.Marshal(errorEnvelope{errorBody{Status: status, Message: msg}})
		if err == nil {
			w.intercepted = true
			h := w.Header()
			h.Set("Content-Type", "application/json")
			h.Set("Content-Length", strconv.Itoa(len(body)))
			w.ResponseWriter.WriteHeader(status)
			_, _ = w.ResponseWriter.Write(body)
			return
		}
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *jsonErrorWriter) Write(p []byte) (int, error) {
	if w.intercepted {
		// Swallow the mux's plain-text body; the envelope is already out.
		return len(p), nil
	}
	return w.ResponseWriter.Write(p)
}

// Unwrap lets http.ResponseController reach the underlying writer's
// Flush/EnableFullDuplex, which the streaming /clean handler needs.
func (w *jsonErrorWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// WriteJSON exposes the server's buffered JSON response helper.
func WriteJSON(w http.ResponseWriter, v any) { writeJSON(w, v) }
