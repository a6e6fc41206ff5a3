// Package durable is PARINDA's crash-safe persistence kit: an
// append-only, CRC32C-framed, length-prefixed write-ahead log with
// segment rotation and group-commit fsync batching, plus an atomic
// snapshot store (write-temp + fsync + rename) keyed to a WAL cut.
// Together they give the serve tier the classic snapshot + log-suffix
// recovery shape: Recover loads the latest valid snapshot and returns
// every WAL record appended at or after its cut, tolerating the torn
// frame a kill -9 can leave at the log's tail.
//
// # On-disk format
//
// A Store owns one directory holding two kinds of files:
//
//	wal-%08d.log    WAL segments, numbered from 1, append-only
//	snap-%08d.snap  snapshots, numbered by the WAL segment they cut at
//
// Every record — in segments and snapshots alike — is one frame:
//
//	[len uint32 LE][crc32c(payload) uint32 LE][payload]
//
// The CRC is Castagnoli (the iSCSI/ext4 polynomial). A frame whose
// header is short, whose length is absurd, whose payload is short, or
// whose CRC mismatches terminates the scan of its file: everything
// before it is intact (CRC-verified), everything from it on is the
// torn tail of an interrupted write. Open truncates the live
// segment's torn tail away so new appends continue from the last
// durable frame.
//
// A snapshot named snap-C covers every record in segments below C:
// after it lands (rename + directory fsync), those segments and any
// older snapshots are pruned. Recovery therefore replays snapshot C
// plus the frames of segments ≥ C; records written between the cut
// and the snapshot's serialization appear in both, so callers must
// make replay idempotent (the serve layer dedups by per-record
// sequence numbers).
//
// # Fsync policies
//
//	SyncAlways    Append returns only once the frame is fsynced.
//	              Concurrent appenders group-commit: whoever finds no
//	              sync in flight becomes the syncer, and one fsync
//	              acknowledges every frame written before it started.
//	SyncInterval  a background goroutine fsyncs every Interval; an
//	              append is durable within Interval of returning.
//	SyncOff       no fsyncs except at rotation, snapshot and Close;
//	              durability is whatever the OS page cache grants.
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Policy is a WAL fsync policy.
type Policy int

const (
	// SyncAlways fsyncs before acknowledging every append
	// (group-committed across concurrent appenders).
	SyncAlways Policy = iota
	// SyncInterval fsyncs on a timer.
	SyncInterval
	// SyncOff never fsyncs on the append path.
	SyncOff
)

// ParsePolicy parses the -fsync flag values.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "off":
		return SyncOff, nil
	}
	return 0, fmt.Errorf("durable: unknown fsync policy %q (want always, interval or off)", s)
}

func (p Policy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncOff:
		return "off"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// Options configure a Store.
type Options struct {
	// SegmentBytes rotates the WAL to a fresh segment once the current
	// one exceeds this size. 0 means DefaultSegmentBytes.
	SegmentBytes int64
	// Policy is the fsync policy (zero value: SyncAlways).
	Policy Policy
	// Interval is the SyncInterval cadence. 0 means DefaultInterval.
	Interval time.Duration
	// OnFsync, when non-nil, observes every fsync's duration — the seam
	// the serve layer hangs its parinda_wal_fsync_seconds histogram on
	// without this package importing the metrics registry.
	OnFsync func(time.Duration)
}

// DefaultSegmentBytes is the rotation threshold when unset (64 MiB).
const DefaultSegmentBytes = 64 << 20

// DefaultInterval is the SyncInterval cadence when unset.
const DefaultInterval = 100 * time.Millisecond

// maxFrame bounds a single record; a length prefix beyond it is
// treated as corruption, not an allocation request.
const maxFrame = 64 << 20

// frameHeader is [len uint32][crc uint32], little-endian.
const frameHeader = 8

const (
	segPrefix  = "wal-"
	segSuffix  = ".log"
	snapPrefix = "snap-"
	snapSuffix = ".snap"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// encodeFrame frames payload as [len][crc32c(payload)][payload].
func encodeFrame(payload []byte) []byte {
	frame := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
	copy(frame[frameHeader:], payload)
	return frame
}

// ErrClosed is returned by appends against a closed Store.
var ErrClosed = errors.New("durable: store is closed")

// Store is a WAL + snapshot directory. All methods are safe for
// concurrent use.
type Store struct {
	dir  string
	opts Options

	mu   sync.Mutex
	cond *sync.Cond // broadcasts sync completion (group commit)
	f    *os.File   // current segment, nil after Close or a failed rotation
	seg  uint64     // current segment number
	low  uint64     // lowest resident segment number
	size int64      // current segment size

	// Group-commit watermarks, in bytes appended this process run:
	// written advances on every Append, synced after every fsync, and
	// syncing marks an fsync in flight — exactly one appender (or the
	// interval goroutine) syncs at a time, and its one fsync
	// acknowledges every frame with written ≤ its mark.
	written uint64
	synced  uint64
	syncing bool
	closed  bool

	snapSeq uint64 // latest snapshot's cut (0 = none)
	torn    int64  // torn-tail bytes truncated at Open

	stop chan struct{} // interval-sync goroutine lifecycle
	done chan struct{}

	appends   atomic.Int64
	bytes     atomic.Int64
	fsyncs    atomic.Int64
	rotations atomic.Int64
	snapshots atomic.Int64
}

// Open opens (creating if needed) the store directory, truncates any
// torn tail off the live segment, and positions for appending.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.Interval <= 0 {
		opts.Interval = DefaultInterval
	}
	s := &Store{dir: dir, opts: opts}
	s.cond = sync.NewCond(&s.mu)

	segs, err := listSeqFiles(dir, segPrefix, segSuffix)
	if err != nil {
		return nil, err
	}
	snaps, err := listSeqFiles(dir, snapPrefix, snapSuffix)
	if err != nil {
		return nil, err
	}
	if len(snaps) > 0 {
		s.snapSeq = snaps[len(snaps)-1]
	}
	if len(segs) == 0 {
		s.seg = 1
		if s.snapSeq > s.seg {
			// A snapshot landed but its cut segment is gone (crash
			// between prune and the next append): resume past the cut so
			// the snapshot still covers everything below it.
			s.seg = s.snapSeq
		}
		s.low = s.seg
		f, err := os.OpenFile(s.segPath(s.seg), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err != nil {
			return nil, err
		}
		s.f = f
		return s, s.start()
	}
	s.low, s.seg = segs[0], segs[len(segs)-1]
	// Truncate the live segment's torn tail so appends resume from the
	// last intact frame.
	path := s.segPath(s.seg)
	_, valid, total, err := scanFrames(path)
	if err != nil {
		return nil, err
	}
	if valid < total {
		s.torn = total - valid
		if err := os.Truncate(path, valid); err != nil {
			return nil, err
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	s.f = f
	s.size = valid
	return s, s.start()
}

// start launches the interval syncer when the policy wants one.
func (s *Store) start() error {
	if s.opts.Policy != SyncInterval {
		return nil
	}
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	go func() {
		defer close(s.done)
		tick := time.NewTicker(s.opts.Interval)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				s.mu.Lock()
				if !s.closed && !s.syncing && s.synced < s.written {
					s.syncOnceLocked() // best effort; appends surface errors
				}
				s.mu.Unlock()
			}
		}
	}()
	return nil
}

func (s *Store) segPath(seq uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s%08d%s", segPrefix, seq, segSuffix))
}

func (s *Store) snapPath(seq uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s%08d%s", snapPrefix, seq, snapSuffix))
}

// Append writes one framed record to the WAL. Under SyncAlways it
// returns only once the record is fsynced (group-committed with any
// concurrent appenders); under the other policies it returns as soon
// as the frame is in the OS buffer.
func (s *Store) Append(payload []byte) error {
	return s.append(payload, s.opts.Policy == SyncAlways)
}

// AppendNoSync writes one framed record without waiting for an fsync
// regardless of policy. The record still participates in group
// commit: any later synchronous Append's fsync covers it. For records
// whose loss is benign (the serve layer's shared-memo publications,
// which merely re-price on a miss).
func (s *Store) AppendNoSync(payload []byte) error {
	return s.append(payload, false)
}

func (s *Store) append(payload []byte, wait bool) error {
	if len(payload) > maxFrame {
		return fmt.Errorf("durable: record of %d bytes exceeds the %d-byte frame bound", len(payload), maxFrame)
	}
	frame := encodeFrame(payload)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.f == nil {
		return ErrClosed
	}
	// rotateLocked releases s.mu around fsyncs, so re-check the
	// threshold after each rotation: a concurrent appender may have
	// rotated (fresh, small segment) or filled the fresh one already.
	for s.size > 0 && s.size+int64(len(frame)) > s.opts.SegmentBytes {
		if err := s.rotateLocked(); err != nil {
			return err
		}
		if s.closed || s.f == nil {
			return ErrClosed
		}
	}
	if _, err := s.f.Write(frame); err != nil {
		return err
	}
	s.size += int64(len(frame))
	s.written += uint64(len(frame))
	s.appends.Add(1)
	s.bytes.Add(int64(len(frame)))
	if !wait {
		return nil
	}
	return s.waitSyncedLocked(s.written)
}

// waitSyncedLocked blocks until every byte up to target is durable:
// if an fsync is already in flight it waits for the broadcast,
// otherwise this caller becomes the syncer. Requires s.mu.
func (s *Store) waitSyncedLocked(target uint64) error {
	for s.synced < target {
		if s.closed {
			return ErrClosed
		}
		if s.syncing {
			s.cond.Wait()
			continue
		}
		if err := s.syncOnceLocked(); err != nil {
			return err
		}
	}
	return nil
}

// syncOnceLocked runs one fsync covering every byte written so far.
// s.mu is released for the fsync itself — appenders keep writing into
// the group commit — and re-held on return. Requires s.mu held and
// !s.syncing. Rotation waits for in-flight syncs, so the file synced
// here is still the current segment when the watermark advances.
func (s *Store) syncOnceLocked() error {
	s.syncing = true
	f := s.f
	mark := s.written
	s.mu.Unlock()
	start := time.Now()
	err := f.Sync()
	elapsed := time.Since(start)
	s.mu.Lock()
	s.syncing = false
	s.fsyncs.Add(1)
	if fn := s.opts.OnFsync; fn != nil {
		fn(elapsed)
	}
	if err == nil {
		s.synced = mark
	}
	s.cond.Broadcast()
	return err
}

// rotateLocked seals the current segment (draining any in-flight
// sync, then syncing until no unsynced byte remains) and opens the
// next one. Requires s.mu. The sync loop matters for durability:
// syncs release s.mu, so appenders keep writing into the segment
// being sealed — the file must not be closed until every one of those
// bytes is fsynced, or the NEXT segment's fsync would acknowledge
// bytes that only ever reached the old segment's OS buffer. Once the
// loop exits, s.mu is held continuously through the file switch, so
// nothing can slip in unsynced.
func (s *Store) rotateLocked() error {
	startSeg := s.seg
	for s.syncing {
		s.cond.Wait()
		if s.closed || s.f == nil {
			return ErrClosed
		}
		if s.seg != startSeg {
			return nil // a concurrent appender rotated while we waited
		}
	}
	for s.synced < s.written {
		if err := s.syncOnceLocked(); err != nil {
			return err
		}
		if s.closed || s.f == nil {
			return ErrClosed
		}
		if s.seg != startSeg {
			return nil
		}
	}
	if err := s.f.Close(); err != nil {
		return err
	}
	s.f = nil // a failed rotation must not leave appends writing to a closed file
	next, err := os.OpenFile(s.segPath(s.seg+1), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	s.seg++
	s.f = next
	s.size = 0
	s.rotations.Add(1)
	syncDir(s.dir) // make the new segment's name durable
	return nil
}

// Rotate seals the current segment and opens a fresh one, returning
// the fresh segment's number — the cut a snapshot taken now should be
// written under: once snap-C lands, every segment below C is covered
// and prunable. Callers serialize their state AFTER Rotate returns,
// so the snapshot is a superset of the sealed segments (records
// landing in both dedup on replay).
func (s *Store) Rotate() (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	if err := s.rotateLocked(); err != nil {
		return 0, err
	}
	return s.seg, nil
}

// WriteSnapshot atomically installs a snapshot at cut (write temp,
// fsync, rename, fsync dir) and prunes the segments and snapshots it
// obsoletes.
func (s *Store) WriteSnapshot(cut uint64, payload []byte) error {
	final := s.snapPath(cut)
	tmp := final + ".tmp"
	frame := encodeFrame(payload)
	if err := os.WriteFile(tmp, frame, 0o644); err != nil {
		return err
	}
	if err := fsyncFile(tmp); err != nil {
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		return err
	}
	if err := syncDir(s.dir); err != nil {
		return err
	}
	s.snapshots.Add(1)

	s.mu.Lock()
	if cut > s.snapSeq {
		s.snapSeq = cut
	}
	low := s.low
	if cut > s.low {
		s.low = cut
	}
	s.mu.Unlock()
	// Prune: best-effort — a leftover file is re-pruned by the next
	// snapshot and harmless to recovery (the cut skips below it).
	for q := low; q < cut; q++ {
		os.Remove(s.segPath(q))
	}
	if snaps, err := listSeqFiles(s.dir, snapPrefix, snapSuffix); err == nil {
		for _, q := range snaps {
			if q < cut {
				os.Remove(s.snapPath(q))
			}
		}
	}
	return nil
}

// Sync forces everything appended so far durable.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.waitSyncedLocked(s.written)
}

// Close syncs (unless SyncOff) and closes the store. Further appends
// fail with ErrClosed.
func (s *Store) Close() error {
	if s.stop != nil {
		close(s.stop)
		<-s.done
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	var err error
	if s.opts.Policy != SyncOff && s.f != nil {
		err = s.waitSyncedLocked(s.written)
	}
	s.closed = true
	s.cond.Broadcast()
	if s.f != nil {
		if cerr := s.f.Close(); err == nil {
			err = cerr
		}
		s.f = nil
	}
	return err
}

// Recovery is what a directory holds at boot: the latest valid
// snapshot (nil when none) and every WAL record at or after its cut,
// in append order.
type Recovery struct {
	Snapshot    []byte
	SnapshotSeq uint64 // the cut segment; 0 when no snapshot
	Records     [][]byte
	// SkippedSnapshots counts corrupt snapshot files passed over for an
	// older valid one; TruncatedBytes the torn tail Open cut off the
	// live segment.
	SkippedSnapshots int
	TruncatedBytes   int64
}

// Recover reads the directory's snapshot + WAL-suffix state. Call it
// after Open (Open already truncated the live segment's torn tail; a
// torn or corrupt frame inside an older segment ends the replay there
// — everything before it is intact).
func (s *Store) Recover() (*Recovery, error) {
	rec := &Recovery{TruncatedBytes: s.torn}
	snaps, err := listSeqFiles(s.dir, snapPrefix, snapSuffix)
	if err != nil {
		return nil, err
	}
	// Newest valid snapshot wins; corrupt ones (torn rename, bad CRC)
	// fall back to older ones, and ultimately to pure WAL replay.
	for i := len(snaps) - 1; i >= 0; i-- {
		payloads, _, _, err := scanFrames(s.snapPath(snaps[i]))
		if err == nil && len(payloads) == 1 {
			rec.Snapshot = payloads[0]
			rec.SnapshotSeq = snaps[i]
			break
		}
		rec.SkippedSnapshots++
	}
	segs, err := listSeqFiles(s.dir, segPrefix, segSuffix)
	if err != nil {
		return nil, err
	}
	for _, seq := range segs {
		if seq < rec.SnapshotSeq {
			continue // covered by the snapshot
		}
		payloads, valid, total, err := scanFrames(s.segPath(seq))
		if err != nil {
			return nil, err
		}
		rec.Records = append(rec.Records, payloads...)
		if valid < total {
			// Torn tail inside a non-live segment (possible only under
			// SyncOff): nothing after it is ordered, stop replaying.
			break
		}
	}
	return rec, nil
}

// Stats is a Store's observability snapshot.
type Stats struct {
	Appends       int64  `json:"appends"`       // records appended this run
	AppendedBytes int64  `json:"appendedBytes"` // framed bytes appended this run
	Fsyncs        int64  `json:"fsyncs"`
	Rotations     int64  `json:"rotations"`
	Snapshots     int64  `json:"snapshots"`   // snapshots written this run
	Segments      int    `json:"segments"`    // resident WAL segment files
	SegmentSeq    uint64 `json:"segmentSeq"`  // current segment number
	SnapshotSeq   uint64 `json:"snapshotSeq"` // latest snapshot's cut (0 = none)
	// TornBytes is the torn tail Open truncated off the live segment —
	// non-zero exactly when the previous process died mid-append.
	TornBytes int64 `json:"tornBytes,omitempty"`
}

// Stats returns the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	seg, low, snapSeq, torn := s.seg, s.low, s.snapSeq, s.torn
	s.mu.Unlock()
	return Stats{
		Appends:       s.appends.Load(),
		AppendedBytes: s.bytes.Load(),
		Fsyncs:        s.fsyncs.Load(),
		Rotations:     s.rotations.Load(),
		Snapshots:     s.snapshots.Load(),
		Segments:      int(seg - low + 1),
		SegmentSeq:    seg,
		SnapshotSeq:   snapSeq,
		TornBytes:     torn,
	}
}

// scanFrames reads a framed file, returning the payloads of its valid
// prefix, that prefix's byte length, and the file's total length. A
// short header, absurd length, short payload or CRC mismatch ends the
// scan — that tail is exactly what an interrupted write leaves.
func scanFrames(path string) (payloads [][]byte, valid, total int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, 0, err
	}
	total = int64(len(data))
	off := 0
	for off+frameHeader <= len(data) {
		n := int(binary.LittleEndian.Uint32(data[off : off+4]))
		crc := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if n > maxFrame || off+frameHeader+n > len(data) {
			break
		}
		payload := data[off+frameHeader : off+frameHeader+n]
		if crc32.Checksum(payload, castagnoli) != crc {
			break
		}
		// Copy out of the file's backing array so payloads stay valid
		// independently of it.
		payloads = append(payloads, append([]byte(nil), payload...))
		off += frameHeader + n
	}
	return payloads, int64(off), total, nil
}

// listSeqFiles returns the sequence numbers of dir's prefix/suffix
// files, ascending.
func listSeqFiles(dir, prefix, suffix string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []uint64
	for _, e := range entries {
		name := e.Name()
		if len(name) <= len(prefix)+len(suffix) ||
			name[:len(prefix)] != prefix || name[len(name)-len(suffix):] != suffix {
			continue
		}
		var seq uint64
		if _, err := fmt.Sscanf(name[len(prefix):len(name)-len(suffix)], "%d", &seq); err != nil || seq == 0 {
			continue
		}
		out = append(out, seq)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

func fsyncFile(path string) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncDir fsyncs a directory so renames and creations within it are
// durable. Best-effort on platforms where directories reject fsync.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
