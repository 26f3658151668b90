// Command detectived serves cleaning engines over HTTP:
//
//	detectived -kb kb.nt -rules rules.dr -schema "Name,DOB,Country,Prize,Institution,City" \
//	    -addr :8080 -ops-addr :9090
//
// Endpoints (see the server package): POST /clean, POST /explain,
// GET /rules, GET /stats, GET /healthz, GET /readyz.
//
// Flag mode (-kb or -kb-snapshot, -rules, -schema) is a registry of one
// tenant named "default": it serves the root routes above and the same
// endpoints under /v1/default/, and its metric series carry
// tenant="default". A KB, rules or schema that cannot load stops the
// daemon at boot with exit status 1.
//
// # Registry mode
//
//	detectived -registry tenants.json -addr :8080 -ops-addr :9090
//
// -registry replaces the single-tenant flags with a JSON fleet
// configuration (see the registry package): named tenants, each with
// its own KB snapshot, rules, schema and limits, served under
// /v1/{tenant}/clean (plus /explain, /rules, /stats, /readyz). Only the
// residency cap's worth of tenants hold a loaded KB at a time; cold
// tenants are admitted on first request — near-instant when their
// snapshot is DKBS v2, which is mmap'd in place. The serving-limit
// flags (-timeout, -max-concurrent, -memo-bytes, ...) become per-tenant
// defaults that tenant configs may override.
//
// Both modes run one serving path. The ops listener (-ops-addr,
// disabled when empty) serves GET /metrics (Prometheus text format:
// repair latency histograms, cache hit/miss counters, per-route HTTP
// metrics), net/http/pprof under /debug/pprof/, the tenant-scoped KB
// lifecycle POST /v1/{tenant}/reload and /rollback (POST /reload and
// /rollback for tenant "default"), and the GET /registry fleet-status
// document — profiling, scraping and reloads stay off the public port.
// SIGHUP re-reads the -registry file and canary-reloads every resident
// tenant from its configured source.
//
// Logs are structured (log/slog, key=value on stderr); -log-level
// picks the floor (debug logs every request with its X-Request-ID).
//
// On SIGTERM/SIGINT the server drains gracefully: every tenant's
// /readyz flips to 503 so load balancers stop routing new work,
// in-flight requests get -drain-timeout to finish, then both listeners
// close.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"detective/internal/registry"
	"detective/internal/repair"
	"detective/internal/server"
	"detective/internal/telemetry"
)

// fleetFlags are the flags that pick what detectived serves.
type fleetFlags struct {
	registry, kb, kbSnapshot, rules, schema, relation string
	ensemble                                          bool
	ensembleRef                                       string
	ensembleThreshold                                 float64
}

// config returns the registry configuration both modes serve: the
// -registry file, or flag mode's fleet of one tenant named "default".
// SIGHUP calls it again. The -ensemble flags overlay the fleet
// defaults, which tenant configs may still override, so flag-driven
// defaults survive config reloads.
func (ff *fleetFlags) config() (*registry.Config, error) {
	cfg := &registry.Config{}
	if ff.registry != "" {
		var err error
		if cfg, err = registry.LoadConfig(ff.registry); err != nil {
			return nil, err
		}
	} else {
		attrs := strings.Split(ff.schema, ",")
		for i := range attrs {
			attrs[i] = strings.TrimSpace(attrs[i])
		}
		// A snapshot wins when both KB flags are set (it is the fast
		// path), as the tenant config's Snapshot does over KBText.
		cfg.Tenants = []registry.TenantConfig{{
			Name:     server.DefaultTenant,
			Snapshot: ff.kbSnapshot,
			KBText:   ff.kb,
			Rules:    ff.rules,
			Schema:   attrs,
			Relation: ff.relation,
		}}
	}
	if ff.ensemble {
		cfg.Defaults.Ensemble = true
	}
	if ff.ensembleRef != "" && cfg.Defaults.EnsembleRef == "" {
		cfg.Defaults.EnsembleRef = ff.ensembleRef
	}
	if ff.ensembleThreshold != 0 && cfg.Defaults.EnsembleThreshold == 0 {
		cfg.Defaults.EnsembleThreshold = ff.ensembleThreshold
	}
	return cfg, nil
}

func main() {
	var ff fleetFlags
	flag.StringVar(&ff.registry, "registry", "", "multi-tenant registry config (JSON); replaces -kb/-rules/-schema")
	warmSpec := flag.String("warm", "", "registry mode: tenants to pre-admit at startup (comma-separated names, or \"all\" for the residency cap's worth)")
	flag.StringVar(&ff.kb, "kb", "", "knowledge base file (triple format)")
	flag.StringVar(&ff.kbSnapshot, "kb-snapshot", "", "knowledge base file (binary snapshot format, see kbtool pack); overrides -kb")
	flag.StringVar(&ff.rules, "rules", "", "detective rules file")
	flag.StringVar(&ff.schema, "schema", "", "comma-separated attribute names of the relation")
	flag.StringVar(&ff.relation, "name", "table", "relation name")
	addr := flag.String("addr", ":8080", "listen address")
	opsAddr := flag.String("ops-addr", "", "ops listen address serving GET /metrics and /debug/pprof (empty = disabled)")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	reqTimeout := flag.Duration("timeout", 30*time.Second, "per-request deadline")
	maxConcurrent := flag.Int("max-concurrent", 0, "max concurrent cleaning requests (0 = 2×GOMAXPROCS)")
	maxBody := flag.Int64("max-body", 64<<20, "max request body bytes")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "graceful-shutdown drain deadline")
	memoBytes := flag.Int64("memo-bytes", 0, "byte budget of the cross-request repair memo (0 = default 48 MiB, negative = off)")
	noMemo := flag.Bool("no-memo", false, "disable the cross-request repair memo")
	verifyMode := flag.String("verify-mode", "", "KB integrity self-check on reload: off, warn (default), strict (reject suspect graphs)")
	retain := flag.Int("retain", 0, "reloaded-out KB generations kept for POST /rollback (0 = default 2, negative = none)")
	canaryRows := flag.Int("canary-rows", 0, "recent rows shadow-replayed against a reload candidate (0 = whole recorded ring, negative = skip replay)")
	canaryMaxBadDelta := flag.Float64("canary-max-bad-delta", 0, "max increase in bad-row rate a candidate may show over live before rejection (0 = default 0.10)")
	canaryWatch := flag.Duration("canary-watch", 0, "post-promote watch window: auto-rollback if the new generation's bad-row rate regresses (0 = disabled)")
	breakerOn := flag.Bool("breaker", false, "enable the repair circuit breaker (degrade to detect-only under quarantine/budget storms)")
	breakerPerRule := flag.Bool("breaker-per-rule", false, "with -breaker, also track and degrade individual rules")
	flag.BoolVar(&ff.ensemble, "ensemble", false, "enable ensemble repair: POST /clean?ensemble=1 repairs by the weighted vote of all engines and returns a confidence column (registry mode: per-tenant default)")
	flag.StringVar(&ff.ensembleRef, "ensemble-ref", "", "with -ensemble: clean reference CSV the FD and constant-CFD proposers are mined from")
	flag.Float64Var(&ff.ensembleThreshold, "ensemble-threshold", 0, "with -ensemble: acceptance threshold on a cell's winning confidence (0 = default)")
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "detectived: bad -log-level %q: %v\n", *logLevel, err)
		os.Exit(2)
	}
	log := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	slog.SetDefault(log)

	if ff.registry == "" && ((ff.kb == "" && ff.kbSnapshot == "") || ff.rules == "" || ff.schema == "") {
		fmt.Fprintln(os.Stderr, "usage: detectived {-kb KB | -kb-snapshot KB.snap} -rules RULES -schema A,B,C [-addr :8080] [-ops-addr :9090]\n"+
			"       detectived -registry tenants.json [-addr :8080] [-ops-addr :9090]")
		os.Exit(2)
	}

	cfg, err := ff.config()
	fail(log, err)
	reg, err := registry.New(*cfg, registry.Options{Logger: log, Server: server.Config{
		RequestTimeout:    *reqTimeout,
		MaxConcurrent:     *maxConcurrent,
		MaxBodyBytes:      *maxBody,
		Logger:            log,
		MemoBytes:         *memoBytes,
		MemoDisabled:      *noMemo,
		VerifyMode:        *verifyMode,
		RetainGenerations: *retain,
		CanaryRows:        *canaryRows,
		CanaryMaxBadDelta: *canaryMaxBadDelta,
		CanaryWatch:       *canaryWatch,
		Breaker: repair.BreakerOptions{
			Enabled: *breakerOn,
			PerRule: *breakerPerRule,
		},
	}})
	fail(log, err)

	// Admit before the listener opens, so first requests don't pay
	// cold-start loads. Flag mode's one tenant must come up or the
	// daemon exits. A registry's -warm set is best effort: a tenant that
	// fails here retries admission on its first request.
	if ff.registry == "" {
		fail(log, reg.Warm(server.DefaultTenant))
	} else if *warmSpec != "" {
		var names []string
		if *warmSpec != "all" {
			names = strings.Split(*warmSpec, ",")
			for i := range names {
				names[i] = strings.TrimSpace(names[i])
			}
		}
		if err := reg.Warm(names...); err != nil {
			log.Error("tenant warmup incomplete", slog.Any("error", err))
		}
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           server.NewTenantMux(reg, log),
		ReadHeaderTimeout: 10 * time.Second,
		// No ReadTimeout/WriteTimeout: /clean legitimately streams
		// large bodies; per-request work is bounded by the handler's
		// own deadline instead.
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var opsSrv *http.Server
	if *opsAddr != "" {
		opsMux := telemetry.NewOpsMux(telemetry.Default())
		// Admin-only KB lifecycle stays on the operator port, next to
		// /metrics and pprof, never on the public listener. /reload is
		// a staged canary (self-check + shadow replay, 409 on reject);
		// /rollback republishes the previous retained generation;
		// /registry is the fleet-status document (residency, pins,
		// generations, admission counters).
		admin := server.NewTenantAdminMux(reg, log)
		opsMux.Handle("/v1/", admin)
		opsMux.Handle("POST /reload", admin)
		opsMux.Handle("POST /rollback", admin)
		opsMux.Handle("GET /registry", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			server.WriteJSON(w, reg.Stats())
		}))
		opsSrv = &http.Server{
			Addr:              *opsAddr,
			Handler:           opsMux,
			ReadHeaderTimeout: 5 * time.Second,
		}
		log.Info("ops listener up",
			slog.String("addr", *opsAddr),
			slog.String("endpoints", "/metrics /debug/pprof/ GET /registry POST /v1/{tenant}/reload POST /v1/{tenant}/rollback POST /reload POST /rollback"))
	}

	// SIGHUP re-reads the configuration — with -registry, added,
	// removed and edited tenants take effect without a restart — then
	// canary-reloads every resident tenant from its configured source;
	// non-resident tenants pick up new files on admission. A broken
	// config file is logged and skipped so the running fleet (and the
	// KB re-read) is never held hostage by a bad edit.
	watchHUP(ctx, log, func() error {
		if cfg, err := ff.config(); err != nil {
			log.Error("SIGHUP: registry config re-read failed; keeping current fleet",
				slog.String("path", ff.registry), slog.Any("error", err))
		} else if err := reg.ApplyConfig(*cfg); err != nil {
			log.Error("SIGHUP: registry config rejected; keeping current fleet",
				slog.String("path", ff.registry), slog.Any("error", err))
		}
		if err := reg.ReloadResident(); err != nil {
			return err
		}
		log.Info("SIGHUP reload complete")
		return nil
	})

	log.Info("detectived up",
		slog.Int("tenants", len(reg.TenantNames())),
		slog.Int("max_resident", reg.MaxResident()),
		slog.String("addr", *addr),
		slog.String("log_level", level.String()))

	serveAndDrain(ctx, log, srv, opsSrv, *drainTimeout, reg.Drain)
}

// watchHUP services SIGHUP reload requests for the process lifetime.
func watchHUP(ctx context.Context, log *slog.Logger, reload func() error) {
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go reloadLoop(ctx, hup, log, reload)
}

// serveAndDrain runs both listeners until a fatal serve error or the
// shutdown signal, then drains: onDrain first (stop advertising
// readiness), a bounded Shutdown next, a hard Close as last resort.
func serveAndDrain(ctx context.Context, log *slog.Logger, srv, opsSrv *http.Server, drainTimeout time.Duration, onDrain func()) {
	errc := make(chan error, 2)
	go func() { errc <- srv.ListenAndServe() }()
	if opsSrv != nil {
		go func() { errc <- opsSrv.ListenAndServe() }()
	}

	select {
	case err := <-errc:
		fail(log, err)
	case <-ctx.Done():
	}

	log.Info("signal received, draining", slog.Duration("drain_timeout", drainTimeout))
	onDrain()
	shCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Shutdown(shCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Error("forced shutdown", slog.Any("error", err))
		_ = srv.Close()
	}
	if opsSrv != nil {
		if err := opsSrv.Shutdown(shCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			_ = opsSrv.Close()
		}
	}
	log.Info("drained, exiting")
}

// reloadLoop services SIGHUP reload requests until ctx is cancelled.
// Racing a SIGHUP against the SIGTERM drain used to start a reload
// mid-shutdown; selecting on ctx and re-checking it after every wakeup
// makes a late SIGHUP a clean no-op: once draining, the signal is
// acknowledged, logged, and the current graph keeps serving whatever
// requests are still in flight.
func reloadLoop(ctx context.Context, hup <-chan os.Signal, log *slog.Logger, reload func() error) {
	for {
		select {
		case <-ctx.Done():
			return
		case _, ok := <-hup:
			if !ok {
				return
			}
			if ctx.Err() != nil {
				log.Info("SIGHUP ignored: server is draining")
				return
			}
			if err := reload(); err != nil {
				log.Error("SIGHUP reload failed; keeping current graph", slog.Any("error", err))
			}
		}
	}
}

func fail(log *slog.Logger, err error) {
	if err != nil {
		log.Error("fatal", slog.Any("error", err))
		os.Exit(1)
	}
}
