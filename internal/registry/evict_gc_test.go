//go:build go1.24

package registry_test

import (
	"fmt"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"weak"

	"detective/internal/kb"
	"detective/internal/registry"
	"detective/internal/repair"
	"detective/internal/server"
	"detective/internal/telemetry"
)

// TestEvictionFreesTenant admits three tenants through one residency
// slot, each serving a request first, and requires the two evicted
// tenants' stores and graphs to be collectable: nothing the process
// keeps — the metrics registry's series, the tenant's compiled rules —
// may hold an evicted tenant's server, engine, catalog, store or graph.
// It runs with the circuit breaker off and on, as the breaker's series
// read the engine.
func TestEvictionFreesTenant(t *testing.T) {
	for _, bo := range []repair.BreakerOptions{{}, {Enabled: true, PerRule: true}} {
		t.Run(fmt.Sprintf("breaker=%v", bo.Enabled), func(t *testing.T) {
			r, err := registry.New(fleetConfig(t, 3, 1), registry.Options{
				Metrics: telemetry.NewRegistry(),
				Server:  server.Config{Breaker: bo},
			})
			if err != nil {
				t.Fatal(err)
			}
			checkEvictionFrees(t, r)
		})
	}
}

// checkEvictionFrees is TestEvictionFreesTenant's body on one
// registry of three tenants capped at one.
func checkEvictionFrees(t *testing.T, r *registry.Registry) {
	var graphs []weak.Pointer[kb.Graph]
	var stores []weak.Pointer[kb.Store]
	for _, name := range r.TenantNames() {
		srv, release, err := r.Tenant(name)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", "/clean?marked=1", strings.NewReader(dirtyCSV)))
		if !strings.Contains(rec.Body.String(), "Haifa+") {
			t.Fatalf("tenant %s: City not repaired:\n%s", name, rec.Body.String())
		}
		graphs = append(graphs, weak.Make(srv.Store().Graph()))
		stores = append(stores, weak.Make(srv.Store()))
		release()
	}
	runtime.GC()
	runtime.GC()
	for i, name := range r.TenantNames() {
		evicted := i < 2
		if alive := graphs[i].Value() != nil; alive == evicted {
			t.Errorf("tenant %s (evicted %v): graph reachable = %v", name, evicted, alive)
		}
		if alive := stores[i].Value() != nil; alive == evicted {
			t.Errorf("tenant %s (evicted %v): store reachable = %v", name, evicted, alive)
		}
	}
	runtime.KeepAlive(r)
}
