package main

// The `parinda serve` subcommand: the multi-tenant design-session
// service. One process hosts many named sessions over one catalog and
// one shared pricing memo; SIGINT/SIGTERM drain in-flight requests
// before exiting.

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/serve"
)

func cmdServe(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7341", "listen address (port 0 picks a free one)")
	maxSessions := fs.Int("max-sessions", serve.DefaultMaxSessions,
		"resident session cap; past it the LRU idle session is evicted")
	idleTTL := fs.Duration("idle-ttl", 30*time.Minute, "evict sessions idle this long (0 = never)")
	drain := fs.Duration("drain", serve.DefaultDrainTimeout, "graceful-shutdown drain timeout")
	workers := fs.Int("workers", 0, "default per-session recommend pricing workers (0 = GOMAXPROCS)")
	wl := fs.String("workload", "", "default workload file (default: built-in 30 queries)")
	scale := fs.Int64("scale", 1000000, "photoobj row count of the synthetic catalog")
	winCap := fs.Int("window-capacity", 0, "per-session ingest window: max distinct queries (0 = default)")
	winHalfLife := fs.Duration("window-halflife", 0, "per-session ingest window: weight decay half-life (0 = default)")
	pprofOn := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ for live profiling")
	memoCap := fs.Int("memo-cap", 0, "shared pricing-memo entry cap per tier, CLOCK-evicting the coldest (0 = unbounded)")
	metricsOn := fs.Bool("metrics", true, "mount the Prometheus text endpoint at /metrics")
	logLevel := fs.String("log-level", "info", "structured-log threshold: debug, info, warn or error")
	logFormat := fs.String("log-format", "text", "structured-log encoding: text or json")
	slowMS := fs.Int("slow-ms", 500, "warn-log requests slower than this many milliseconds (0 = off)")
	mutexFrac := fs.Int("pprof-mutex-frac", 0, "runtime mutex-profile sampling fraction (0 = off; see runtime.SetMutexProfileFraction)")
	blockRate := fs.Int("pprof-block-rate", 0, "runtime block-profile sampling rate in ns (0 = off; see runtime.SetBlockProfileRate)")
	dataDir := fs.String("data-dir", "", "durability directory: journal every state change and recover it on boot (empty = in-memory only)")
	fsyncPolicy := fs.String("fsync", "always", "WAL fsync policy: always (durable before ack), interval, or off")
	fsyncInterval := fs.Duration("fsync-interval", 0, "flush cadence under -fsync=interval (0 = 100ms)")
	walSegMB := fs.Int64("wal-segment-mb", 0, "rotate WAL segments past this many MiB (0 = 64)")
	snapInterval := fs.Duration("snapshot-interval", 30*time.Second, "periodic snapshot cadence with -data-dir (0 = final-snapshot-only)")
	if err := parseFlags(fs, args, stderr); err != nil {
		return err
	}
	policy, err := durable.ParsePolicy(*fsyncPolicy)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return err
	}
	logger, err := obs.NewLogger(stderr, *logLevel, *logFormat)
	if err != nil {
		return err
	}
	if *mutexFrac > 0 {
		runtime.SetMutexProfileFraction(*mutexFrac)
	}
	if *blockRate > 0 {
		runtime.SetBlockProfileRate(*blockRate)
	}
	queries, err := loadQueries(*wl)
	if err != nil {
		return err
	}
	cat, err := buildCatalog(*scale)
	if err != nil {
		return err
	}
	sv, err := serve.New(cat, queries, serve.Options{
		MaxSessions:      *maxSessions,
		IdleTTL:          *idleTTL,
		Workers:          *workers,
		DrainTimeout:     *drain,
		WindowCapacity:   *winCap,
		WindowHalfLife:   *winHalfLife,
		Pprof:            *pprofOn,
		MemoCap:          *memoCap,
		DisableMetrics:   !*metricsOn,
		Logger:           logger,
		SlowRequest:      time.Duration(*slowMS) * time.Millisecond,
		DataDir:          *dataDir,
		Fsync:            policy,
		FsyncInterval:    *fsyncInterval,
		WalSegmentBytes:  *walSegMB << 20,
		SnapshotInterval: *snapInterval,
	})
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return sv.ListenAndServe(ctx, *addr, func(a net.Addr) {
		fmt.Fprintf(stdout, "parinda serve: listening on http://%s (default workload: %d queries, scale %d, max %d sessions)\n",
			a, len(queries), *scale, *maxSessions)
	})
}
