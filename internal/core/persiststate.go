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
// policy replays the same deterministic decisions as the original
// (SpaceEffBY excepted: its random stream is not captured — see its
// method comments). Restore requires a receiver constructed with the
// same configuration (capacity, subroutine) as the snapshotted
// policy; mismatches are rejected rather than silently adopted so a
// changed CLI flag falls back to a cold start instead of a cache that
// violates its own bounds.

import (
	"fmt"
	"math"

	"bypassyield/internal/bheap"
	"bypassyield/internal/statecodec"
)

// StateSnapshotter is implemented by policies (and bypass-object
// subroutines) whose full decision state can be serialized for
// crash-safe persistence and restored into a freshly constructed
// instance. SnapshotState returns nil when the instance cannot be
// snapshotted (e.g. OnlineBY over a foreign subroutine); RestoreState
// validates the blob completely before mutating the receiver.
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
	spaceStateVersion  = 1
	lruStateVersion    = 1
	gdsStateVersion    = 1
	noneStateVersion   = 1
)

// putObject writes an object's id, size, fetch cost and site.
func putObject(e *statecodec.Encoder, o Object) {
	e.Str(string(o.ID))
	e.I64(o.Size)
	e.I64(o.FetchCost)
	e.Str(o.Site)
}

// validObject reads what putObject wrote and rejects malformed objects
// in hostile blobs; on failure the decoder is poisoned and the caller's
// Done surfaces the error.
func validObject(d *statecodec.Decoder) Object {
	obj := Object{
		ID:        ObjectID(d.Str()),
		Size:      d.I64(),
		FetchCost: d.I64(),
		Site:      d.Str(),
	}
	if d.Err() == nil {
		if err := obj.Validate(); err != nil {
			d.Fail("core: invalid object in state blob: %v", err)
		}
	}
	return obj
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
	entries := r.entries.sorted()
	e.U64(uint64(len(entries)))
	for _, ent := range entries {
		putObject(&e, ent.v.obj)
		e.I64(ent.v.loadTime)
		e.I64(ent.v.sumYield)
	}
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
	d := statecodec.NewDecoder(data)
	d.Version(rpStateVersion, "rate-profile")
	capacity := d.I64()
	if d.Err() == nil && capacity != r.cfg.Capacity {
		return fmt.Errorf("core: rate-profile snapshot capacity %d, configured %d", capacity, r.cfg.Capacity)
	}
	evictions := d.I64()
	var entries objTable[*rpEntry]
	var used int64
	for i, n := 0, d.Count(); i < n && d.Err() == nil; i++ {
		obj := validObject(&d)
		ent := &rpEntry{obj: obj, loadTime: d.I64(), sumYield: d.I64()}
		if d.Err() != nil {
			break
		}
		if entries.find(obj) != nil {
			return fmt.Errorf("core: duplicate cached object %s in rate-profile state", obj.ID)
		}
		*entries.put(obj) = ent
		used += obj.Size
	}
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
		m := d.Count()
		for j := 0; j < m && d.Err() == nil; j++ {
			p.past = append(p.past, d.F64())
		}
		if d.Err() != nil {
			break
		}
		*profiles.put(Object{ID: id}) = p
	}
	if err := d.Done(); err != nil {
		return err
	}
	if used > r.cfg.Capacity {
		return fmt.Errorf("core: rate-profile snapshot uses %d bytes over capacity %d", used, r.cfg.Capacity)
	}
	r.setEntries(entries)
	r.used = used
	r.evictions = evictions
	r.profiles.byObj = profiles
	r.last = Explain{}
	return nil
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
	d := statecodec.NewDecoder(data)
	d.Version(llStateVersion, "landlord")
	scratch := l.greedyDual
	if err := scratch.decodeCapacity(&d); err != nil {
		return err
	}
	if err := scratch.decodeInflation(&d); err != nil {
		return err
	}
	if err := scratch.decodeContents(&d); err != nil {
		return err
	}
	if err := d.Done(); err != nil {
		return err
	}
	l.greedyDual = scratch
	return nil
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
	entries := m.entries.sorted()
	e.U64(uint64(len(entries)))
	for _, ent := range entries {
		putObject(&e, ent.v.obj)
		e.Bool(ent.v.marked)
	}
	return e.Bytes()
}

// RestoreState implements StateSnapshotter.
func (m *SizeClassMarking) RestoreState(data []byte) error {
	d := statecodec.NewDecoder(data)
	d.Version(scmStateVersion, "size-class-marking")
	capacity := d.I64()
	if d.Err() == nil && capacity != m.cap {
		return fmt.Errorf("core: size-class-marking snapshot capacity %d, configured %d", capacity, m.cap)
	}
	phaseBypass := d.I64()
	evictions := d.I64()
	var entries objTable[*scmEntry]
	var used int64
	for i, n := 0, d.Count(); i < n && d.Err() == nil; i++ {
		obj := validObject(&d)
		marked := d.Bool()
		if d.Err() != nil {
			break
		}
		if entries.find(obj) != nil {
			return fmt.Errorf("core: duplicate cached object %s in size-class-marking state", obj.ID)
		}
		*entries.put(obj) = &scmEntry{obj: obj, marked: marked, class: sizeClass(obj.Size)}
		used += obj.Size
	}
	if err := d.Done(); err != nil {
		return err
	}
	if used > m.cap {
		return fmt.Errorf("core: size-class-marking snapshot uses %d bytes over capacity %d", used, m.cap)
	}
	m.entries = entries
	m.used = used
	m.phaseBypass = phaseBypass
	m.evictions = evictions
	return nil
}

// ---- OnlineBY ----

// SnapshotState implements StateSnapshotter: the per-object BYU
// accumulators plus the subroutine's own state blob. Returns nil when
// the subroutine does not implement StateSnapshotter.
func (o *OnlineBY) SnapshotState() []byte {
	ss, ok := o.aobj.(StateSnapshotter)
	if !ok {
		return nil
	}
	sub := ss.SnapshotState()
	if sub == nil {
		return nil
	}
	var e statecodec.Encoder
	e.U8(onlineStateVersion)
	e.Str(o.aobj.Name())
	e.Blob(sub)
	encodeCounts(&e, &o.acc)
	return e.Bytes()
}

// RestoreState implements StateSnapshotter. The receiver must run the
// same subroutine the snapshot was taken over.
func (o *OnlineBY) RestoreState(data []byte) error {
	ss, ok := o.aobj.(StateSnapshotter)
	if !ok {
		return fmt.Errorf("core: online-by subroutine %s cannot restore state", o.aobj.Name())
	}
	d := statecodec.NewDecoder(data)
	d.Version(onlineStateVersion, "online-by")
	name := d.Str()
	if d.Err() == nil && name != o.aobj.Name() {
		return fmt.Errorf("core: online-by snapshot over subroutine %q, configured %q", name, o.aobj.Name())
	}
	sub := d.Blob()
	acc := decodeCounts(&d)
	if err := d.Done(); err != nil {
		return err
	}
	if err := ss.RestoreState(sub); err != nil {
		return err
	}
	o.acc = acc
	o.last = Explain{}
	return nil
}

// ---- SpaceEffBY ----

// SnapshotState implements StateSnapshotter for the randomized
// algorithm's deterministic part: the subroutine's cache state. The
// random stream is NOT captured — after a restore the policy draws
// from its current generator, so decisions are statistically
// equivalent but not bitwise identical to the uninterrupted run
// (persist counts any divergence during WAL replay).
func (s *SpaceEffBY) SnapshotState() []byte {
	ss, ok := s.aobj.(StateSnapshotter)
	if !ok {
		return nil
	}
	sub := ss.SnapshotState()
	if sub == nil {
		return nil
	}
	var e statecodec.Encoder
	e.U8(spaceStateVersion)
	e.Str(s.aobj.Name())
	e.Blob(sub)
	return e.Bytes()
}

// RestoreState implements StateSnapshotter.
func (s *SpaceEffBY) RestoreState(data []byte) error {
	ss, ok := s.aobj.(StateSnapshotter)
	if !ok {
		return fmt.Errorf("core: space-eff-by subroutine %s cannot restore state", s.aobj.Name())
	}
	d := statecodec.NewDecoder(data)
	d.Version(spaceStateVersion, "space-eff-by")
	name := d.Str()
	if d.Err() == nil && name != s.aobj.Name() {
		return fmt.Errorf("core: space-eff-by snapshot over subroutine %q, configured %q", name, s.aobj.Name())
	}
	sub := d.Blob()
	if err := d.Done(); err != nil {
		return err
	}
	return ss.RestoreState(sub)
}

// ---- in-line policies (shared heap machinery) ----

// encodeState appends the shared in-line cache state (heap items with
// their priorities) to e.
func (c *inlineCache) encodeState(e *statecodec.Encoder) {
	e.I64(c.cap)
	e.I64(c.evictions)
	encodeHeap(e, c.heap)
}

// encodeHeap appends a cache's heap — its objects with their
// utilities, in heap order, which decodeHeap rebuilds exactly.
func encodeHeap(e *statecodec.Encoder, h *bheap.Heap[Object]) {
	items := h.Items()
	e.U64(uint64(len(items)))
	for _, it := range items {
		putObject(e, it.Value)
		e.F64(it.Utility)
	}
}

// decodeHeap reads what encodeHeap wrote: the heap, each object's item
// and the bytes the objects occupy. what names the cache and utility its
// utility, for errors.
func decodeHeap(d *statecodec.Decoder, what, utility string) (*bheap.Heap[Object], objTable[*bheap.Item[Object]], int64, error) {
	heap := bheap.New[Object](64)
	var items objTable[*bheap.Item[Object]]
	var used int64
	for i, n := 0, d.Count(); i < n && d.Err() == nil; i++ {
		obj := validObject(d)
		u := d.F64()
		if d.Err() != nil {
			break
		}
		if math.IsNaN(u) {
			return nil, items, 0, fmt.Errorf("core: %s snapshot has NaN %s for %s", what, utility, obj.ID)
		}
		if items.find(obj) != nil {
			return nil, items, 0, fmt.Errorf("core: %s snapshot: duplicate object %s", what, obj.ID)
		}
		*items.put(obj) = heap.Push(u, obj)
		used += obj.Size
	}
	return heap, items, used, d.Err()
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

// decodeState replaces the shared in-line cache state from d. The
// caller finishes with d.Done().
func (c *inlineCache) decodeState(d *statecodec.Decoder) error {
	if err := c.decodeCapacity(d); err != nil {
		return err
	}
	return c.decodeContents(d)
}

// decodeCapacity reads a snapshot's capacity, which must be c's.
func (c *inlineCache) decodeCapacity(d *statecodec.Decoder) error {
	capacity := d.I64()
	if d.Err() == nil && capacity != c.cap {
		return fmt.Errorf("core: %s snapshot capacity %d, configured %d", c.name, capacity, c.cap)
	}
	return nil
}

// decodeContents replaces c's evictions and heap from d.
func (c *inlineCache) decodeContents(d *statecodec.Decoder) error {
	evictions := d.I64()
	heap, items, used, err := decodeHeap(d, c.name, "priority")
	if err != nil {
		return err
	}
	if used > c.cap {
		return fmt.Errorf("core: %s snapshot uses %d bytes over capacity %d", c.name, used, c.cap)
	}
	c.heap, c.items = heap, items
	c.used = used
	c.evictions = evictions
	return nil
}

// encodeState appends GreedyDual-Size's state: the in-line cache's,
// then the inflation value L. GDS writes it; Landlord, whose blob
// predates the shared code, writes L before the heap.
func (g *greedyDual) encodeState(e *statecodec.Encoder) {
	g.inlineCache.encodeState(e)
	e.F64(g.l)
}

// decodeState replaces g's state from what encodeState wrote.
func (g *greedyDual) decodeState(d *statecodec.Decoder) error {
	if err := g.inlineCache.decodeState(d); err != nil {
		return err
	}
	return g.decodeInflation(d)
}

// decodeInflation replaces g's inflation value L from d.
func (g *greedyDual) decodeInflation(d *statecodec.Decoder) error {
	g.l = d.F64()
	if d.Err() == nil && math.IsNaN(g.l) {
		return fmt.Errorf("core: %s snapshot has NaN inflation value", g.name)
	}
	return nil
}

// SnapshotState implements StateSnapshotter.
func (l *LRU) SnapshotState() []byte {
	var e statecodec.Encoder
	e.U8(lruStateVersion)
	l.encodeState(&e)
	return e.Bytes()
}

// RestoreState implements StateSnapshotter.
func (l *LRU) RestoreState(data []byte) error {
	d := statecodec.NewDecoder(data)
	d.Version(lruStateVersion, "lru")
	if err := l.decodeState(&d); err != nil {
		return err
	}
	return d.Done()
}

// SnapshotState implements StateSnapshotter.
func (g *GDS) SnapshotState() []byte {
	var e statecodec.Encoder
	e.U8(gdsStateVersion)
	g.encodeState(&e)
	return e.Bytes()
}

// RestoreState implements StateSnapshotter.
func (g *GDS) RestoreState(data []byte) error {
	d := statecodec.NewDecoder(data)
	d.Version(gdsStateVersion, "gds")
	scratch := g.greedyDual
	if err := scratch.decodeState(&d); err != nil {
		return err
	}
	if err := d.Done(); err != nil {
		return err
	}
	g.greedyDual = scratch
	return nil
}

// ---- NoCache ----

// SnapshotState implements StateSnapshotter (the baseline is
// stateless; the blob is just a version byte so warm restarts treat
// "none" uniformly).
func (NoCache) SnapshotState() []byte { return []byte{noneStateVersion} }

// RestoreState implements StateSnapshotter.
func (NoCache) RestoreState(data []byte) error {
	d := statecodec.NewDecoder(data)
	d.Version(noneStateVersion, "no-cache")
	return d.Done()
}
