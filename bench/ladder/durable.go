package main

// Probe: durable. Append edit-sized records to a store under each
// flush policy, then reopen the last directory and recover it. The
// numbers are the sandbox's: a page-cache-backed fsync is cheap, so
// `always` here understates a real disk.

import (
	"bytes"
	"os"
	"sort"
	"time"

	"repro/internal/durable"
)

const (
	durableAppends = 400
	durableRecord  = 512 // bytes; about one journaled edit
)

func probeDurable(cx *replay, out output) error {
	payload := bytes.Repeat([]byte("x"), durableRecord)
	var lastDir string
	for _, pol := range []durable.Policy{durable.SyncAlways, durable.SyncInterval, durable.SyncOff} {
		dir, err := os.MkdirTemp(cx.in.Dir, "durable-"+pol.String()+"-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		var fsyncs []time.Duration
		st, err := durable.Open(dir, durable.Options{Policy: pol, OnFsync: func(d time.Duration) { fsyncs = append(fsyncs, d) }})
		if err != nil {
			return err
		}
		var appends []time.Duration
		for i := 0; i < durableAppends; i++ {
			start := time.Now()
			if err := st.Append(payload); err != nil {
				st.Close()
				return err
			}
			appends = append(appends, time.Since(start))
		}
		stats := st.Stats()
		if err := st.Close(); err != nil {
			return err
		}
		out["durable.append_us."+pol.String()] = medianUS(appends)
		if pol == durable.SyncAlways {
			sort.Slice(fsyncs, func(i, j int) bool { return fsyncs[i] < fsyncs[j] })
			if len(fsyncs) > 0 {
				out["durable.fsync_p50_ms"] = float64(fsyncs[len(fsyncs)/2]) / 1e6
			}
			out["durable.wal_bytes_per_record"] = float64(stats.AppendedBytes) / float64(stats.Appends)
		}
		lastDir = dir
	}

	start := time.Now()
	st, err := durable.Open(lastDir, durable.Options{Policy: durable.SyncOff})
	if err != nil {
		return err
	}
	rec, err := st.Recover()
	took := time.Since(start)
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	out["durable.store_recover_ms"] = float64(took) / 1e6
	out["durable.store_recover_records"] = float64(len(rec.Records))
	return nil
}
