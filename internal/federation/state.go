package federation

// Crash-safe persistence support: the mediator's decision state as a
// serializable value (State), a journal of per-access mutations
// emitted under the decision lock (Journal), and the replay entry
// point that reapplies journal records over a restored State. The
// persist manager (internal/persist) owns the files; this file owns
// the consistency boundary.
//
// The boundary is the decision lock. Every mutation of the sequential
// state — clock, accounting, policy, journal emission — happens under
// it, so a State captured under it sits exactly between accesses:
// Σ decision yields = D_A holds in the captured accounting, and the
// journal rotated inside the same critical section (SnapshotState's
// barrier callback) partitions all records strictly into
// before-snapshot and after-snapshot. Recovery restores the State and
// replays the after-snapshot records; the invariant holds again at
// every replayed step.

import (
	"fmt"

	"bypassyield/internal/core"
)

// JournalKind classifies one journaled state mutation.
type JournalKind uint8

const (
	// JournalAccess is a policy-decided access (the normal path).
	JournalAccess JournalKind = iota + 1
	// JournalForced is a degraded-mode serve-from-cache: the owning
	// site was down and the cached copy was force-served as a hit.
	JournalForced
	// JournalFailed is a degraded-mode dropped leg: site down, object
	// not cached, nothing delivered and nothing charged.
	JournalFailed
)

// JournalRecord is one state mutation: everything replay needs to
// reproduce the access against a restored mediator. The object is
// referenced by id — the object universe is immutable and rebuilt
// from the schema on restart.
type JournalRecord struct {
	// Kind classifies the record.
	Kind JournalKind
	// T is the plane clock at the access; replay skips and advances by
	// it.
	T int64
	// Object is the accessed object's id.
	Object core.ObjectID
	// Yield is the access's yield share in bytes.
	Yield int64
	// Decision is the charged decision (Hit for Forced records;
	// meaningless for Failed).
	Decision core.Decision
}

// Journal receives one record per accounted access, called under the
// decision lock — implementations must be fast, must not block on the
// network, and must never call back into the mediator.
type Journal interface {
	JournalAccess(rec JournalRecord)
}

// State is the mediator's full decision-plane state at one
// consistency boundary. Schema, Granularity, PolicyName and Capacity
// guard a restore against a reconfigured daemon: any mismatch rejects
// the snapshot (cold start) rather than adopting state the running
// configuration cannot honor.
type State struct {
	// Clock is the plane clock at the boundary; it names the snapshot
	// and WAL files.
	Clock int64
	// Schema is the federated release name.
	Schema string
	// Granularity is the object granularity.
	Granularity Granularity
	// PolicyName names the cache policy (core.NoCache's "none" when
	// caching is disabled).
	PolicyName string
	// Capacity is the cache capacity in bytes (0 for "none").
	Capacity int64
	// Acct is the flow accounting at the boundary.
	Acct core.Accounting
	// PolicyBlob is the policy's serialized decision state (see
	// core.StateSnapshotter); nil when the policy cannot snapshot.
	PolicyBlob []byte
}

// SetJournal attaches (or, with nil, detaches) the mutation journal.
func (m *Mediator) SetJournal(j Journal) {
	m.mu.Lock()
	m.journal = j
	m.mu.Unlock()
}

// SnapshotState captures the mediator's State under the decision
// lock. The optional barrier callback runs while the lock is still
// held: the persist manager rotates its WAL inside it, so no journal
// record can land between the state capture and the rotation — the
// captured State and the fresh WAL form an exact prefix/suffix
// partition of the access stream. The callback must not call back
// into the mediator; its error aborts the snapshot.
func (m *Mediator) SnapshotState(barrier func(State) error) (State, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := State{
		Clock:       m.t,
		Schema:      m.cfg.Schema.Name,
		Granularity: m.cfg.Granularity,
		PolicyName:  m.policyName,
		Capacity:    m.capacity,
		Acct:        m.dec.Acct,
	}
	if ss, ok := m.policy.(core.StateSnapshotter); ok {
		st.PolicyBlob = ss.SnapshotState()
	}
	if barrier != nil {
		if err := barrier(st); err != nil {
			return State{}, err
		}
	}
	return st, nil
}

// RestoreState adopts a previously captured State: configuration
// guards first (schema, granularity, policy name, capacity — any
// mismatch is an error and the mediator is left untouched), then the
// policy blob, clock and accounting, which the registry's flow
// counters read from then on (core.yield_bytes = Acct.YieldBytes =
// D_A) and so does the savings gauge, core.bytes_saved_vs_bypass. Call
// before serving traffic; the decision ledger ring is not part of State
// and restarts empty (it is a windowed audit view, not accounting).
func (m *Mediator) RestoreState(st State) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if st.Schema != m.cfg.Schema.Name {
		return fmt.Errorf("federation: snapshot for schema %q, mediator serves %q", st.Schema, m.cfg.Schema.Name)
	}
	if st.Granularity != m.cfg.Granularity {
		return fmt.Errorf("federation: snapshot at granularity %s, mediator configured for %s", st.Granularity, m.cfg.Granularity)
	}
	if st.PolicyName != m.policyName {
		return fmt.Errorf("federation: snapshot for policy %q, mediator runs %q", st.PolicyName, m.policyName)
	}
	if st.Capacity != m.capacity {
		return fmt.Errorf("federation: snapshot at capacity %d, mediator configured for %d", st.Capacity, m.capacity)
	}
	if len(st.PolicyBlob) > 0 {
		ss, ok := m.policy.(core.StateSnapshotter)
		if !ok {
			return fmt.Errorf("federation: policy %q cannot restore persisted state", m.policyName)
		}
		if err := ss.RestoreState(st.PolicyBlob); err != nil {
			return fmt.Errorf("federation: restoring policy state: %w", err)
		}
	}
	m.t = st.Clock
	m.replayBase = st.Clock
	m.dec.Restore(st.Acct)
	m.queriesMet.Add(st.Clock)
	return nil
}

// ReplayJournal reapplies one journal record over the restored state.
// The policy re-decides the access to evolve its internal state, but
// the accounting charges the RECORDED decision — that is what the
// client was actually served before the crash. The two agree when this
// build's policy decides as the writer's did from the same state;
// diverged reports a disagreement, so the persist manager can surface
// it (persist.replay_divergence, the recovery line's diverged=) instead
// of silently rewriting history. A journal is not refused for it. A
// journal diverges when the build that wrote it decided otherwise (an
// older GDS inserted a loaded object at the inflation value it had
// before that load's evictions; this one, at the raised value), or when
// it follows a SpaceEffBY snapshot of version 1, which did not carry
// the random stream's position.
// applied is false for records whose effects are already inside the
// restored snapshot (the prefix/suffix partition is per-file; the
// first file after a mid-stream snapshot can carry pre-boundary
// records). Unknown objects (a schema change between runs) are errors;
// the caller should abandon replay and fall back rather than apply a
// gapped suffix.
func (m *Mediator) ReplayJournal(rec JournalRecord) (applied, diverged bool, err error) {
	obj, ok := m.objects[rec.Object]
	if !ok {
		return false, false, fmt.Errorf("federation: journal references unknown object %s", rec.Object)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if rec.T <= m.replayBase {
		return false, false, nil
	}
	// Each distinct clock value was one mediated query.
	if rec.T > m.t {
		m.queriesMet.Add(rec.T - m.t)
		m.dec.Acct.Queries += rec.T - m.t
		m.t = rec.T
	}
	switch rec.Kind {
	case JournalAccess:
		diverged = m.policy.Access(m.t, obj, rec.Yield) != rec.Decision
		if err := m.dec.Replay(obj, rec.Yield, rec.Decision); err != nil {
			return true, diverged, err
		}
	case JournalForced:
		// The site was down and the cached copy was force-served; the
		// policy was not consulted then and is not consulted now.
		if err := m.dec.Replay(obj, rec.Yield, core.Hit); err != nil {
			return true, false, err
		}
		m.tel.RecordForced(obj.Site, rec.Yield)
	case JournalFailed:
		m.tel.RecordFailedLeg(obj.Site)
	default:
		return false, false, fmt.Errorf("federation: unknown journal kind %d", rec.Kind)
	}
	return true, diverged, nil
}
