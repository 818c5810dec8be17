// Package persist is byproxyd's crash-safe persistence layer: the
// proxy's learned state — cache policy decision state, flow
// accounting, the query clock — survives process death, so a restart
// warm-starts the federation instead of re-earning every caching
// decision over the WAN.
//
// Mechanism: periodic checksummed snapshots of the mediator's State
// (written to a temp file, fsynced, atomically renamed) plus an
// append-only write-ahead log of per-access journal records between
// snapshots, CRC-framed with torn-tail truncation on replay. The
// snapshot is captured under the mediator's decision lock at a
// consistent Σ decision yields = D_A boundary, and the WAL is rotated
// inside the same critical section, so snapshot + WAL always form an
// exact prefix of the access stream. Recovery takes the newest valid
// snapshot (falling back to the previous one when the newest is
// corrupt, and to a cold start when none decode), replays the WAL
// chain over it, truncating at the first torn or corrupt frame, and
// then writes a fresh post-recovery snapshot — the proxy never
// appends to a WAL that may itself have a torn tail. Both file kinds
// frame their payloads alike (codec.go), and the payloads, like the
// policy blobs inside a snapshot, are written in one codec,
// internal/statecodec.
//
// Metrics (in the shared obs registry, surfaced by byinspect):
//
//	persist.snapshots            counter: snapshots written
//	persist.snapshot_errors      counter: failed snapshot attempts
//	persist.snapshot_bytes       counter: snapshot bytes written
//	persist.last_snapshot_unix   gauge: wall clock of the last snapshot
//	persist.snapshot_clock       gauge: query clock of the last snapshot
//	persist.wal_records          counter: journal records appended
//	persist.wal_bytes            counter: WAL bytes appended
//	persist.wal_syncs            counter: per-record fsyncs (-wal-sync)
//	persist.wal_errors           counter: failed appends (degrades to
//	                             snapshot-only durability, never blocks
//	                             the decision path permanently)
//	persist.recovery_ms          gauge: startup recovery duration
//	persist.warm_start           gauge: 1 = state recovered, 0 = cold
//	persist.recovered_records    gauge: WAL records replayed at startup
//	persist.replay_divergence    counter: replayed decisions that
//	                             disagreed with the recorded ones
//	persist.wal_torn_tails       counter: torn/corrupt WAL tails truncated
//	persist.snapshot_fallbacks   counter: snapshots skipped as invalid
package persist

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"bypassyield/internal/core"
	"bypassyield/internal/federation"
	"bypassyield/internal/obs"
)

// DefaultSnapshotInterval is the periodic snapshot cadence when the
// config leaves it zero.
const DefaultSnapshotInterval = 30 * time.Second

// keepSnapshots is how many snapshot generations survive GC: the
// newest plus one fallback (with their WALs).
const keepSnapshots = 2

const (
	snapSuffix = ".bys"
	walSuffix  = ".byw"
)

// Config parameterizes a Manager.
type Config struct {
	// Dir is the state directory (created if missing).
	Dir string
	// SnapshotInterval is the periodic snapshot cadence; zero selects
	// DefaultSnapshotInterval.
	SnapshotInterval time.Duration
	// SyncEveryRecord fsyncs the WAL after every record (-wal-sync):
	// an access is then durable before its query result reaches the
	// client, at the cost of one fsync per access.
	SyncEveryRecord bool
	// Obs, when non-nil, receives the persist.* metrics.
	Obs *obs.Registry
	// Logf logs recovery and degradation events (nil = silent).
	Logf func(format string, args ...any)
	// Faults arms deterministic crash points in the writers (tests
	// only; nil = disabled).
	Faults *FaultPoints
}

// RecoveryReport describes what Open recovered.
type RecoveryReport struct {
	// Warm reports whether any snapshot was restored (false = cold
	// start: nothing on disk, nothing valid, or configuration
	// mismatch).
	Warm bool
	// SnapshotClock is the restored snapshot's query clock.
	SnapshotClock int64
	// SnapshotPath is the restored snapshot file.
	SnapshotPath string
	// Fallbacks counts snapshots skipped as invalid before one
	// restored (0 = the newest was good).
	Fallbacks int
	// Skipped names each skipped snapshot and why, newest first.
	Skipped []string
	// WALFiles counts WAL files replayed (possibly partially).
	WALFiles int
	// Replayed counts journal records reapplied.
	Replayed int
	// Diverged counts replayed decisions that disagreed with the
	// recorded ones (randomized policies only).
	Diverged int
	// TornTail reports a torn or corrupt WAL tail was truncated.
	TornTail bool
	// TornDetail explains the truncation.
	TornDetail string
	// ReplayError is a non-empty application error that stopped
	// replay early (unknown object after a schema change, ...); the
	// state recovered is the consistent prefix before it.
	ReplayError string
	// DurationMS is the wall time recovery took.
	DurationMS int64
	// Acct is the accounting after recovery.
	Acct core.Accounting
}

// String renders the report as one log line.
func (r RecoveryReport) String() string {
	skipped := ""
	if len(r.Skipped) > 0 {
		skipped = "; skipped " + strings.Join(r.Skipped, "; ")
	}
	if !r.Warm {
		return fmt.Sprintf("cold start (fallbacks=%d) in %dms%s", r.Fallbacks, r.DurationMS, skipped)
	}
	s := fmt.Sprintf("warm start from %s (clock=%d fallbacks=%d): replayed %d records from %d wal(s), diverged=%d",
		filepath.Base(r.SnapshotPath), r.SnapshotClock, r.Fallbacks, r.Replayed, r.WALFiles, r.Diverged)
	if r.TornTail {
		s += fmt.Sprintf(", torn tail truncated (%s)", r.TornDetail)
	}
	if r.ReplayError != "" {
		s += fmt.Sprintf(", replay stopped early (%s)", r.ReplayError)
	}
	s += fmt.Sprintf("; D_A=%d yield=%d queries=%d in %dms",
		r.Acct.DeliveredBytes(), r.Acct.YieldBytes, r.Acct.Queries, r.DurationMS)
	return s + skipped
}

// Manager owns the state directory for one mediator: it journals
// every access, snapshots periodically, and recovers on Open.
type Manager struct {
	cfg Config
	med *federation.Mediator

	// mu guards the WAL writer. Lock order: the mediator's decision
	// lock is always taken first (appends arrive under it; rotation
	// happens inside SnapshotState's barrier) — nothing under mu ever
	// calls back into the mediator.
	mu           sync.Mutex
	wal          *walWriter
	closed       bool
	walErrLogged bool

	stop chan struct{}
	done chan struct{}

	recovery RecoveryReport

	mSnapshots  *obs.Counter
	mSnapErrors *obs.Counter
	mSnapBytes  *obs.Counter
	mWALRecords *obs.Counter
	mWALBytes   *obs.Counter
	mWALSyncs   *obs.Counter
	mWALErrors  *obs.Counter
	mTornTails  *obs.Counter
	mFallbacks  *obs.Counter
	mDivergence *obs.Counter

	gLastSnapUnix *obs.Gauge
	gSnapClock    *obs.Gauge
	gRecoveryMS   *obs.Gauge
	gWarmStart    *obs.Gauge
	gRecovered    *obs.Gauge
}

// Open recovers state from cfg.Dir into med, writes a fresh
// post-recovery snapshot, attaches the journal, and starts the
// periodic snapshot loop. Call before serving traffic. The returned
// manager's Recovery() reports what was restored.
func Open(cfg Config, med *federation.Mediator) (*Manager, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("persist: state directory is required")
	}
	if med == nil {
		return nil, fmt.Errorf("persist: mediator is required")
	}
	if cfg.SnapshotInterval <= 0 {
		cfg.SnapshotInterval = DefaultSnapshotInterval
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: %v", err)
	}
	m := &Manager{cfg: cfg, med: med, stop: make(chan struct{}), done: make(chan struct{})}
	m.registerMetrics(cfg.Obs)

	start := time.Now()
	m.recover()
	m.recovery.DurationMS = time.Since(start).Milliseconds()
	m.gRecoveryMS.Set(m.recovery.DurationMS)
	if m.recovery.Warm {
		m.gWarmStart.Set(1)
	} else {
		m.gWarmStart.Set(0)
	}
	m.gRecovered.Set(int64(m.recovery.Replayed))
	m.mDivergence.Add(int64(m.recovery.Diverged))
	m.cfg.Logf("persist: %s", m.recovery)

	// Post-recovery boundary: a fresh snapshot and a fresh WAL. The
	// old chain (possibly torn) stays on disk only as GC'd history;
	// nothing is ever appended after a truncated tail.
	if err := m.snapshot(); err != nil {
		return nil, fmt.Errorf("persist: post-recovery snapshot: %v", err)
	}
	med.SetJournal(m)
	go m.loop()
	return m, nil
}

// Recovery returns what Open restored.
func (m *Manager) Recovery() RecoveryReport { return m.recovery }

// Close detaches the journal and flushes a final snapshot — the
// graceful-shutdown path: a SIGTERM drain ends with the complete
// state on disk, so the next start replays nothing.
func (m *Manager) Close() error {
	close(m.stop)
	<-m.done
	err := m.snapshot()
	m.med.SetJournal(nil)
	m.mu.Lock()
	m.closed = true
	if m.wal != nil {
		if werr := m.wal.close(); err == nil {
			err = werr
		}
		m.wal = nil
	}
	m.mu.Unlock()
	return err
}

func (m *Manager) registerMetrics(r *obs.Registry) {
	m.mSnapshots = r.Counter("persist.snapshots")
	m.mSnapErrors = r.Counter("persist.snapshot_errors")
	m.mSnapBytes = r.Counter("persist.snapshot_bytes")
	m.mWALRecords = r.Counter("persist.wal_records")
	m.mWALBytes = r.Counter("persist.wal_bytes")
	m.mWALSyncs = r.Counter("persist.wal_syncs")
	m.mWALErrors = r.Counter("persist.wal_errors")
	m.mTornTails = r.Counter("persist.wal_torn_tails")
	m.mFallbacks = r.Counter("persist.snapshot_fallbacks")
	m.mDivergence = r.Counter("persist.replay_divergence")
	m.gLastSnapUnix = r.Gauge("persist.last_snapshot_unix")
	m.gSnapClock = r.Gauge("persist.snapshot_clock")
	m.gRecoveryMS = r.Gauge("persist.recovery_ms")
	m.gWarmStart = r.Gauge("persist.warm_start")
	m.gRecovered = r.Gauge("persist.recovered_records")
}

// JournalAccess implements federation.Journal: append one record to
// the active WAL. Called under the mediator's decision lock — with
// SyncEveryRecord the record is durable before the query result
// frame leaves the proxy. Append failures degrade to snapshot-only
// durability (counted, logged once) rather than failing queries.
func (m *Manager) JournalAccess(rec federation.JournalRecord) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.wal == nil || m.closed {
		return
	}
	n, synced, err := m.wal.append(rec, m.cfg.SyncEveryRecord, m.cfg.Faults)
	if err != nil {
		m.mWALErrors.Add(1)
		if !m.walErrLogged {
			m.walErrLogged = true
			m.cfg.Logf("persist: wal append failed (snapshot-only durability until recovery): %v", err)
		}
		return
	}
	m.mWALRecords.Add(1)
	m.mWALBytes.Add(int64(n))
	if synced {
		m.mWALSyncs.Add(1)
	}
}

func (m *Manager) loop() {
	defer close(m.done)
	t := time.NewTicker(m.cfg.SnapshotInterval)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-t.C:
			if err := m.snapshot(); err != nil {
				m.cfg.Logf("persist: periodic snapshot: %v", err)
			}
		}
	}
}

// snapshot captures the mediator's state at a consistent boundary and
// makes it durable: WAL rotation happens inside the mediator's
// decision lock (the barrier), the frame write outside it.
func (m *Manager) snapshot() error {
	st, err := m.med.SnapshotState(func(st federation.State) error {
		return m.rotateWAL(st.Clock)
	})
	if err != nil {
		m.mSnapErrors.Add(1)
		return err
	}
	n, err := m.writeSnapshot(st)
	if err != nil {
		m.mSnapErrors.Add(1)
		return err
	}
	m.mSnapshots.Add(1)
	m.mSnapBytes.Add(int64(n))
	m.gLastSnapUnix.Set(time.Now().Unix())
	m.gSnapClock.Set(st.Clock)
	m.gc(st.Clock)
	return nil
}

// rotateWAL closes the active WAL and opens wal-<clock>. Runs inside
// the mediator's decision lock, so the rotation point is exactly the
// snapshot's consistency boundary.
func (m *Manager) rotateWAL(clock int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return fmt.Errorf("persist: manager closed")
	}
	if m.wal != nil {
		if err := m.wal.close(); err != nil {
			m.cfg.Logf("persist: closing rotated wal: %v", err)
		}
		m.wal = nil
	}
	w, err := newWALWriter(filepath.Join(m.cfg.Dir, walName(clock)))
	if err != nil {
		return err
	}
	m.wal = w
	m.walErrLogged = false
	return nil
}

// writeSnapshot writes snap-<clock> atomically: temp file, fsync,
// rename, directory fsync.
func (m *Manager) writeSnapshot(st federation.State) (int, error) {
	frame := encodeSnapshotFrame(st, time.Now().Unix())
	final := filepath.Join(m.cfg.Dir, snapName(st.Clock))
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, err
	}
	half := len(frame) / 2
	if _, err := f.Write(frame[:half]); err != nil {
		f.Close()
		return 0, err
	}
	m.cfg.Faults.Hit(FaultSnapMidWrite, func() { f.Sync() })
	if _, err := f.Write(frame[half:]); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	m.cfg.Faults.Hit(FaultSnapPreRename, nil)
	if err := os.Rename(tmp, final); err != nil {
		return 0, err
	}
	syncDir(m.cfg.Dir)
	return len(frame), nil
}

// recover restores the newest valid snapshot and replays its WAL
// chain. Invalid snapshots fall back to older ones; with none valid
// the mediator starts cold. Fills m.recovery.
func (m *Manager) recover() {
	rep := &m.recovery
	snaps := m.listClocks(snapSuffix)
	// Newest first: the most recent consistent boundary wins.
	for i := len(snaps) - 1; i >= 0; i-- {
		clock := snaps[i]
		path := filepath.Join(m.cfg.Dir, snapName(clock))
		data, err := os.ReadFile(path)
		var st federation.State
		if err == nil {
			st, _, err = decodeSnapshotFrame(data)
		}
		if err == nil {
			err = m.med.RestoreState(st)
		}
		if err != nil {
			m.cfg.Logf("persist: skipping snapshot %s: %v", filepath.Base(path), err)
			rep.Fallbacks++
			rep.Skipped = append(rep.Skipped, fmt.Sprintf("%s: %v", filepath.Base(path), err))
			m.mFallbacks.Add(1)
			continue
		}
		// The file's name carries the header's clock, which WAL files
		// are named by; a one-section snapshot from a build that
		// claimed its clock outside the decision lock restores an
		// older clock from its section.
		rep.Warm = true
		rep.SnapshotClock = clock
		rep.SnapshotPath = path
		m.replayChain(clock, rep)
		rep.Acct = m.med.Accounting()
		return
	}
}

// replayChain replays, in ascending order, every WAL whose start
// clock is at or after the restored snapshot's clock. The chain stops
// at the first torn frame or application error: everything applied is
// a consistent prefix of the pre-crash access stream.
func (m *Manager) replayChain(snapClock int64, rep *RecoveryReport) {
	for _, clock := range m.listClocks(walSuffix) {
		if clock < snapClock {
			continue
		}
		path := filepath.Join(m.cfg.Dir, walName(clock))
		data, err := os.ReadFile(path)
		if err != nil {
			rep.ReplayError = err.Error()
			return
		}
		rep.WALFiles++
		torn, detail, err := walkWAL(data, func(rec federation.JournalRecord) error {
			// The mediator owns the skip rule (the record's clock
			// against the restored snapshot boundary): applied is false
			// for records already inside the snapshot.
			applied, diverged, err := m.med.ReplayJournal(rec)
			if err != nil {
				return err
			}
			if !applied {
				return nil
			}
			if diverged {
				rep.Diverged++
			}
			rep.Replayed++
			return nil
		})
		if err != nil {
			m.cfg.Logf("persist: replay of %s stopped: %v", filepath.Base(path), err)
			rep.ReplayError = err.Error()
			return
		}
		if torn {
			m.cfg.Logf("persist: %s: %s (truncating)", filepath.Base(path), detail)
			rep.TornTail = true
			rep.TornDetail = detail
			m.mTornTails.Add(1)
			return
		}
	}
}

// gc keeps the newest keepSnapshots snapshot generations (and the
// WALs covering them) and removes everything older, plus stray temp
// files from interrupted snapshot writes. Files whose clock is ahead
// of the snapshot just written go too: the clock only counts up, so
// they belong to a history recovery refused or could not read, and
// would otherwise outrank every generation written since.
func (m *Manager) gc(currentClock int64) {
	snaps := m.listClocks(snapSuffix)
	live := snaps[:sort.Search(len(snaps), func(i int) bool { return snaps[i] > currentClock })]
	var oldest int64
	if len(live) > keepSnapshots {
		oldest = live[len(live)-keepSnapshots]
	}
	for _, clock := range snaps {
		if clock < oldest || clock > currentClock {
			os.Remove(filepath.Join(m.cfg.Dir, snapName(clock)))
		}
	}
	for _, clock := range m.listClocks(walSuffix) {
		if clock < oldest || clock > currentClock {
			os.Remove(filepath.Join(m.cfg.Dir, walName(clock)))
		}
	}
	ents, err := os.ReadDir(m.cfg.Dir)
	if err != nil {
		return
	}
	for _, ent := range ents {
		name := ent.Name()
		if strings.HasSuffix(name, ".tmp") && name != snapName(currentClock)+".tmp" {
			os.Remove(filepath.Join(m.cfg.Dir, name))
		}
	}
}

// listClocks returns the clocks of all state files with the given
// suffix, ascending.
func (m *Manager) listClocks(suffix string) []int64 {
	ents, err := os.ReadDir(m.cfg.Dir)
	if err != nil {
		return nil
	}
	prefix := "snap-"
	if suffix == walSuffix {
		prefix = "wal-"
	}
	var clocks []int64
	for _, ent := range ents {
		name := ent.Name()
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
			continue
		}
		num := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
		clock, err := strconv.ParseInt(num, 10, 64)
		if err != nil || clock < 0 {
			continue
		}
		clocks = append(clocks, clock)
	}
	sort.Slice(clocks, func(i, j int) bool { return clocks[i] < clocks[j] })
	return clocks
}

func snapName(clock int64) string { return fmt.Sprintf("snap-%016d%s", clock, snapSuffix) }
func walName(clock int64) string  { return fmt.Sprintf("wal-%016d%s", clock, walSuffix) }

// syncDir fsyncs a directory so a rename survives power loss; errors
// are ignored (best effort — some filesystems refuse directory
// fsync).
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

// walWriter appends CRC-framed records to one WAL file.
type walWriter struct {
	f   *os.File
	bw  *bufio.Writer
	buf []byte // the last frame, reused for the next
}

// newWALWriter creates (or truncates) a WAL file and writes its
// magic. Truncation is safe: rotation happens at a snapshot boundary,
// so a same-clock WAL can only be an empty leftover of the previous
// rotation at this clock.
func newWALWriter(path string) (*walWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.WriteString(walMagic); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	return &walWriter{f: f, bw: bufio.NewWriterSize(f, 1<<15)}, nil
}

// append writes one framed record, threading the crash fault points;
// with sync the record is fsynced before returning.
func (w *walWriter) append(rec federation.JournalRecord, sync bool, faults *FaultPoints) (n int, synced bool, err error) {
	frame := appendFrame(w.buf[:0], encodeRecord(rec))
	w.buf = frame
	flush := func() { w.bw.Flush() }
	if _, err := w.bw.Write(frame[:frameHeader]); err != nil {
		return 0, false, err
	}
	faults.Hit(FaultWALAfterHeader, flush)
	half := frameHeader + (len(frame)-frameHeader)/2
	if _, err := w.bw.Write(frame[frameHeader:half]); err != nil {
		return 0, false, err
	}
	faults.Hit(FaultWALMidRecord, flush)
	if _, err := w.bw.Write(frame[half:]); err != nil {
		return 0, false, err
	}
	faults.Hit(FaultWALPreSync, flush)
	if err := w.bw.Flush(); err != nil {
		return 0, false, err
	}
	if sync {
		if err := w.f.Sync(); err != nil {
			return 0, false, err
		}
	}
	return len(frame), sync, nil
}

// close flushes, fsyncs, and closes the WAL file.
func (w *walWriter) close() error {
	err := w.bw.Flush()
	if serr := w.f.Sync(); err == nil {
		err = serr
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}
