package core

// Crash-safe state serialization for the cache policies (see
// internal/persist). Every factory-constructible policy implements
// StateSnapshotter with a versioned blob written in the primitives of
// internal/statecodec, the codec persist frames its snapshot and
// journal payloads with. The blobs
// are self-delimiting and strictly validated on decode — truncated,
// over-long, duplicated, or capacity-inconsistent input returns an
// error and leaves the receiver unchanged, never panics (the persist
// fuzz targets drive arbitrary bytes through RestoreState).
//
// Per-object sections are written in id order, so a policy's snapshot
// is the same bytes wherever its state was kept (see objTable) and
// however it was reached. Restored objects carry no slot; the restored
// state is found by id until the objects are next seen.
//
// A snapshot captures the policy's full decision state, so a restored
// policy replays the same decisions as the original: SpaceEffBY's
// includes how far its random stream has been drawn. Restore requires
// a receiver constructed with the same configuration (capacity,
// subroutine, seed) as the snapshotted policy; mismatches are rejected
// rather than silently adopted so a changed CLI flag falls back to a
// cold start instead of a cache that violates its own bounds.

import (
	"math"

	"bypassyield/internal/bheap"
	"bypassyield/internal/statecodec"
)

// StateSnapshotter is implemented by policies (and bypass-object
// subroutines) whose full decision state can be serialized for
// crash-safe persistence and restored into a freshly constructed
// instance. RestoreState validates the blob completely before mutating
// the receiver.
type StateSnapshotter interface {
	SnapshotState() []byte
	RestoreState(data []byte) error
}

// Per-type blob versions. Bump on any encoding change; decoders
// reject versions they do not understand so an old binary never
// misreads a new blob.
const (
	rpStateVersion     = 1
	llStateVersion     = 1
	scmStateVersion    = 1
	onlineStateVersion = 1
	spaceStateVersion  = 2
	gdsStateVersion    = 1
	noneStateVersion   = 1
)

// restore is the one restore path of every RestoreState: it checks
// data's version byte (what names the state for errors), lets decode
// read the rest into values of its own, failing d on a malformed blob,
// and calls the commit decode returns only once d.Done succeeds. So a
// refused blob leaves the receiver as it was: no commit runs before the
// whole blob is read and checked.
func restore(data []byte, version uint8, what string, decode func(d *statecodec.Decoder) (commit func())) error {
	commit, err := decodeBlob(data, version, what, decode)
	if err == nil {
		commit()
	}
	return err
}

// decodeBlob is restore without the commit, which it returns: the
// wrapping policies read their subroutine's blob with it.
func decodeBlob(data []byte, version uint8, what string, decode func(d *statecodec.Decoder) (commit func())) (func(), error) {
	d := statecodec.NewDecoder(data)
	d.Version(version, what)
	commit := decode(&d)
	if err := d.Done(); err != nil {
		return nil, err
	}
	return commit, nil
}

// decodeCapacity reads a snapshot's capacity, which must be the
// receiver's; what names the policy.
func decodeCapacity(d *statecodec.Decoder, what string, capacity int64) {
	if c := d.I64(); d.Err() == nil && c != capacity {
		d.Fail("core: %s snapshot capacity %d, configured %d", what, c, capacity)
	}
}

// putObject writes an object's id, size, fetch cost and site.
func putObject(e *statecodec.Encoder, o Object) {
	e.Str(string(o.ID))
	e.I64(o.Size)
	e.I64(o.FetchCost)
	e.Str(o.Site)
}

// encodeCached writes a list of cached objects: the count, then per
// object its id, size, fetch cost and site, then the policy's fields,
// which fields writes.
func encodeCached[T any](e *statecodec.Encoder, items []T, obj func(T) Object, fields func(T)) {
	e.U64(uint64(len(items)))
	for _, it := range items {
		putObject(e, obj(it))
		fields(it)
	}
}

// decodeCached reads what encodeCached wrote into a table of the values
// fields reads after each object, and returns it with the bytes the
// objects occupy. It refuses an invalid object, an object listed twice
// and a list that does not fit in capacity; what names the policy.
func decodeCached[V any](d *statecodec.Decoder, what string, capacity int64, fields func(Object) V) (objTable[V], int64) {
	var t objTable[V]
	var used int64
	for i, n := 0, d.Count(); i < n && d.Err() == nil; i++ {
		obj := Object{ID: ObjectID(d.Str()), Size: d.I64(), FetchCost: d.I64(), Site: d.Str()}
		v := fields(obj)
		switch err := obj.Validate(); {
		case d.Err() != nil:
		case err != nil:
			d.Fail("core: invalid object in state blob: %v", err)
		case t.find(obj) != nil:
			d.Fail("core: %s snapshot: duplicate object %s", what, obj.ID)
		case obj.Size > capacity-used:
			d.Fail("core: %s snapshot over capacity %d at object %s", what, capacity, obj.ID)
		default:
			*t.put(obj) = v
			used += obj.Size
		}
	}
	return t, used
}

// ---- Rate-Profile ----

// SnapshotState implements StateSnapshotter: the cached entries with
// their rate-profile accumulators, plus the full out-of-cache episode
// table (open-episode state and completed-episode LAR history).
func (r *RateProfile) SnapshotState() []byte {
	var e statecodec.Encoder
	e.U8(rpStateVersion)
	e.I64(r.cfg.Capacity)
	e.I64(r.evictions)
	encodeCached(&e, r.entries.sorted(), func(ent slotEntry[*rpEntry]) Object { return ent.v.obj },
		func(ent slotEntry[*rpEntry]) {
			e.I64(ent.v.loadTime)
			e.I64(ent.v.sumYield)
		})
	profiles := r.profiles.byObj.sorted()
	e.U64(uint64(len(profiles)))
	for _, ent := range profiles {
		p := ent.v
		e.Str(string(ent.id))
		e.Bool(p.open)
		e.Bool(p.started)
		e.I64(p.start)
		e.I64(p.sumYield)
		e.F64(p.maxLARP)
		e.I64(p.lastAccess)
		e.U64(uint64(len(p.past)))
		for _, v := range p.past {
			e.F64(v)
		}
	}
	return e.Bytes()
}

// RestoreState implements StateSnapshotter. The receiver must be
// configured with the snapshot's capacity.
func (r *RateProfile) RestoreState(data []byte) error {
	return restore(data, rpStateVersion, "rate-profile", func(d *statecodec.Decoder) func() {
		decodeCapacity(d, "rate-profile", r.cfg.Capacity)
		evictions := d.I64()
		entries, used := decodeCached(d, "rate-profile", r.cfg.Capacity, func(obj Object) *rpEntry {
			return &rpEntry{obj: obj, loadTime: d.I64(), sumYield: d.I64()}
		})
		var profiles objTable[*profile]
		for i, n := 0, d.Count(); i < n && d.Err() == nil; i++ {
			id := ObjectID(d.Str())
			p := &profile{
				open:       d.Bool(),
				started:    d.Bool(),
				start:      d.I64(),
				sumYield:   d.I64(),
				maxLARP:    d.F64(),
				lastAccess: d.I64(),
			}
			for j, m := 0, d.Count(); j < m && d.Err() == nil; j++ {
				p.past = append(p.past, d.F64())
			}
			if why := profileFault(p, r.profiles.cfg.MaxEpisodes); why != "" && d.Err() == nil {
				d.Fail("core: rate-profile snapshot: profile %s %s", id, why)
			}
			*profiles.put(Object{ID: id}) = p
		}
		return func() {
			r.setEntries(entries)
			r.used = used
			r.evictions = evictions
			r.profiles.byObj = profiles
			r.last = Explain{}
		}
	})
}

// profileFault names the first bound of observe and closeEpisode that
// a restored profile breaks, "" when it keeps them all: a closed profile
// has not started and holds no Σy and no maximum; an open one has
// started, and its maximum LARP — (Σy − f)/(Δt·s) at an earlier access,
// with f, s and Δt each at least 1 — lies below its Σy; Σy ≥ 0, the
// episode starts no later than the last access, and the history holds
// at most maxEpisodes finite LARs ≥ 0.
func profileFault(p *profile, maxEpisodes int) string {
	switch {
	case !p.open && (p.started || p.sumYield != 0 || p.maxLARP != 0):
		return "is closed with an episode's state"
	case p.open && !p.started:
		return "is open but not started"
	case p.sumYield < 0:
		return "has a negative Σy"
	case p.start > p.lastAccess:
		return "starts after its last access"
	case math.IsNaN(p.maxLARP) || math.IsInf(p.maxLARP, 0):
		return "has a maximum LARP that is not finite"
	case p.open && p.maxLARP >= float64(p.sumYield):
		return "has a maximum LARP not below its Σy"
	case len(p.past) > maxEpisodes:
		return "holds more episodes than MaxEpisodes"
	}
	for _, v := range p.past {
		if !(v >= 0) || math.IsInf(v, 1) {
			return "holds a LAR that is negative or not finite"
		}
	}
	return ""
}

// ---- Landlord ----

// SnapshotState implements StateSnapshotter: the credit heap (as
// offset-absolute utilities) and the global offset L, preserving every
// cached object's effective credit exactly. Landlord writes L before
// the heap, where GDS writes it after.
func (l *Landlord) SnapshotState() []byte {
	var e statecodec.Encoder
	e.U8(llStateVersion)
	e.I64(l.cap)
	e.F64(l.l)
	e.I64(l.evictions)
	encodeHeap(&e, l.heap)
	return e.Bytes()
}

// RestoreState implements StateSnapshotter.
func (l *Landlord) RestoreState(data []byte) error {
	return restore(data, llStateVersion, "landlord", l.decode)
}

// decodeState implements ObjectCacher.
func (l *Landlord) decodeState(data []byte) (func(), error) {
	return decodeBlob(data, llStateVersion, "landlord", l.decode)
}

// decode reads a Landlord blob after its version byte.
func (l *Landlord) decode(d *statecodec.Decoder) func() {
	decodeCapacity(d, l.name, l.cap)
	inflation := decodeInflation(d, l.name)
	contents := l.decodeContents(d)
	return func() {
		contents()
		l.l = inflation
	}
}

// ---- SizeClassMarking ----

// SnapshotState implements StateSnapshotter: the cached entries with
// their marks plus the phase's refused-fetch accumulator (size classes
// are recomputed from object sizes).
func (m *SizeClassMarking) SnapshotState() []byte {
	var e statecodec.Encoder
	e.U8(scmStateVersion)
	e.I64(m.cap)
	e.I64(m.phaseBypass)
	e.I64(m.evictions)
	encodeCached(&e, m.entries.sorted(), func(ent slotEntry[*scmEntry]) Object { return ent.v.obj },
		func(ent slotEntry[*scmEntry]) { e.Bool(ent.v.marked) })
	return e.Bytes()
}

// RestoreState implements StateSnapshotter.
func (m *SizeClassMarking) RestoreState(data []byte) error {
	return restore(data, scmStateVersion, "size-class-marking", m.decode)
}

// decodeState implements ObjectCacher.
func (m *SizeClassMarking) decodeState(data []byte) (func(), error) {
	return decodeBlob(data, scmStateVersion, "size-class-marking", m.decode)
}

// decode reads a size-class marking blob after its version byte.
func (m *SizeClassMarking) decode(d *statecodec.Decoder) func() {
	decodeCapacity(d, "size-class-marking", m.cap)
	phaseBypass := d.I64()
	evictions := d.I64()
	entries, used := decodeCached(d, "size-class-marking", m.cap, func(obj Object) *scmEntry {
		return &scmEntry{obj: obj, marked: d.Bool(), class: sizeClass(obj.Size)}
	})
	return func() {
		m.entries = entries
		m.used = used
		m.phaseBypass = phaseBypass
		m.evictions = evictions
	}
}

// ---- OnlineBY and SpaceEffBY ----

// encodeSubroutine appends aobj's name and blob.
func encodeSubroutine(e *statecodec.Encoder, aobj ObjectCacher) {
	e.Str(aobj.Name())
	e.Blob(aobj.SnapshotState())
}

// decodeSubroutine reads what encodeSubroutine wrote, which must be
// aobj's, and returns the commit of aobj's blob; what names the
// wrapping policy.
func decodeSubroutine(d *statecodec.Decoder, what string, aobj ObjectCacher) func() {
	name, sub := d.Str(), d.Blob()
	switch {
	case d.Err() != nil:
	case name != aobj.Name():
		d.Fail("core: %s snapshot over subroutine %q, configured %q", what, name, aobj.Name())
	default:
		commit, err := aobj.decodeState(sub)
		if err != nil {
			d.Fail("%w", err)
		}
		return commit
	}
	return nil
}

// SnapshotState implements StateSnapshotter: the per-object BYU
// accumulators plus the subroutine's own state blob.
func (o *OnlineBY) SnapshotState() []byte {
	var e statecodec.Encoder
	e.U8(onlineStateVersion)
	encodeSubroutine(&e, o.aobj)
	encodeCounts(&e, &o.acc)
	return e.Bytes()
}

// RestoreState implements StateSnapshotter. The receiver must run the
// same subroutine the snapshot was taken over.
func (o *OnlineBY) RestoreState(data []byte) error {
	return restore(data, onlineStateVersion, "online-by", func(d *statecodec.Decoder) func() {
		sub := decodeSubroutine(d, "online-by", o.aobj)
		acc := decodeCounts(d)
		return func() {
			sub()
			o.acc = acc
			o.last = Explain{}
		}
	})
}

// encodeCounts appends a per-object count, in id order.
func encodeCounts(e *statecodec.Encoder, t *objTable[int64]) {
	ents := t.sorted()
	e.U64(uint64(len(ents)))
	for _, ent := range ents {
		e.Str(string(ent.id))
		e.I64(ent.v)
	}
}

// decodeCounts reads what encodeCounts wrote.
func decodeCounts(d *statecodec.Decoder) objTable[int64] {
	var t objTable[int64]
	for i, n := 0, d.Count(); i < n && d.Err() == nil; i++ {
		id := ObjectID(d.Str())
		*t.put(Object{ID: id}) = d.I64()
	}
	return t
}

// SnapshotState implements StateSnapshotter: the subroutine's cache
// state, then the number of values drawn from the random source.
func (s *SpaceEffBY) SnapshotState() []byte {
	var e statecodec.Encoder
	e.U8(spaceStateVersion)
	encodeSubroutine(&e, s.aobj)
	e.U64(s.src.n)
	return e.Bytes()
}

// RestoreState implements StateSnapshotter. The receiver's source,
// which must be the snapshotted policy's seed, is drawn up to the
// snapshot's count, so the restored policy decides as the original
// would have; a receiver whose source has drawn more is refused. A
// version-1 blob, written before the count was, restores the cache and
// leaves the stream where it is.
func (s *SpaceEffBY) RestoreState(data []byte) error {
	version := uint8(spaceStateVersion)
	if len(data) > 0 && data[0] == 1 {
		version = 1
	}
	return restore(data, version, "space-eff-by", func(d *statecodec.Decoder) func() {
		sub := decodeSubroutine(d, "space-eff-by", s.aobj)
		drawn := s.src.n
		if version > 1 {
			drawn = d.U64()
			if d.Err() == nil && drawn < s.src.n {
				d.Fail("core: space-eff-by snapshot at draw %d, the receiver's source has drawn %d", drawn, s.src.n)
			}
		}
		return func() {
			sub()
			for s.src.n < drawn {
				s.src.Int63()
			}
		}
	})
}

// ---- GDS (and the heap it shares with Landlord) ----

// encodeHeap appends a GreedyDual-Size heap — its objects with their
// utilities, in heap order, which decodeContents rebuilds exactly.
func encodeHeap(e *statecodec.Encoder, h *bheap.Heap[Object]) {
	encodeCached(e, h.Items(), func(it *bheap.Item[Object]) Object { return it.Value },
		func(it *bheap.Item[Object]) { e.F64(it.Utility) })
}

// decodeContents reads a GreedyDual-Size cache's evictions and heap,
// and returns the commit that installs them in g.
func (g *greedyDual) decodeContents(d *statecodec.Decoder) func() {
	evictions := d.I64()
	heap := bheap.New[Object](64)
	items, used := decodeCached(d, g.name, g.cap, func(obj Object) *bheap.Item[Object] {
		u := d.F64()
		if d.Err() == nil && math.IsNaN(u) {
			d.Fail("core: %s snapshot has NaN priority for %s", g.name, obj.ID)
		}
		return heap.Push(u, obj)
	})
	return func() {
		g.heap, g.items = heap, items
		g.used = used
		g.evictions = evictions
	}
}

// decodeInflation reads a GreedyDual-Size inflation value L.
func decodeInflation(d *statecodec.Decoder, what string) float64 {
	l := d.F64()
	if d.Err() == nil && math.IsNaN(l) {
		d.Fail("core: %s snapshot has NaN inflation value", what)
	}
	return l
}

// SnapshotState implements StateSnapshotter: the evictions and the
// heap, then L, which Landlord, whose blob predates the shared code,
// writes before the heap.
func (g *GDS) SnapshotState() []byte {
	var e statecodec.Encoder
	e.U8(gdsStateVersion)
	e.I64(g.cap)
	e.I64(g.evictions)
	encodeHeap(&e, g.heap)
	e.F64(g.l)
	return e.Bytes()
}

// RestoreState implements StateSnapshotter.
func (g *GDS) RestoreState(data []byte) error {
	return restore(data, gdsStateVersion, "gds", func(d *statecodec.Decoder) func() {
		decodeCapacity(d, g.name, g.cap)
		contents := g.decodeContents(d)
		inflation := decodeInflation(d, g.name)
		return func() {
			contents()
			g.l = inflation
		}
	})
}

// ---- NoCache ----

// SnapshotState implements StateSnapshotter (the baseline is
// stateless; the blob is just a version byte so warm restarts treat
// "none" uniformly).
func (NoCache) SnapshotState() []byte { return []byte{noneStateVersion} }

// RestoreState implements StateSnapshotter.
func (NoCache) RestoreState(data []byte) error {
	return restore(data, noneStateVersion, "none", func(*statecodec.Decoder) func() { return func() {} })
}
