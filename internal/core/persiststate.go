package core

// Crash-safe state serialization for the cache policies (see
// internal/persist). Every factory-constructible policy implements
// StateSnapshotter with a compact versioned binary encoding: varint
// integers, fixed 8-byte floats, length-prefixed strings. The blobs
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
// same configuration (capacity, subroutine, K) as the snapshotted
// policy; mismatches are rejected rather than silently adopted so a
// changed CLI flag falls back to a cold start instead of a cache that
// violates its own bounds.

import (
	"encoding/binary"
	"fmt"
	"math"

	"bypassyield/internal/bheap"
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
	lfuStateVersion    = 1
	gdsStateVersion    = 1
	gdspStateVersion   = 1
	lrukStateVersion   = 1
	noneStateVersion   = 1
)

// stateEnc builds a state blob.
type stateEnc struct{ b []byte }

func (e *stateEnc) u8(v uint8)    { e.b = append(e.b, v) }
func (e *stateEnc) i64(v int64)   { e.b = binary.AppendVarint(e.b, v) }
func (e *stateEnc) u64(v uint64)  { e.b = binary.AppendUvarint(e.b, v) }
func (e *stateEnc) f64(v float64) { e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(v)) }
func (e *stateEnc) str(s string)  { e.u64(uint64(len(s))); e.b = append(e.b, s...) }
func (e *stateEnc) bytes(p []byte) {
	e.u64(uint64(len(p)))
	e.b = append(e.b, p...)
}
func (e *stateEnc) boolean(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}
func (e *stateEnc) object(o Object) {
	e.str(string(o.ID))
	e.i64(o.Size)
	e.i64(o.FetchCost)
	e.str(o.Site)
}

// stateDec consumes a state blob with error latching: after the first
// failure every accessor returns the zero value and the error
// surfaces once through done().
type stateDec struct {
	b   []byte
	err error
}

func (d *stateDec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *stateDec) u8() uint8 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 1 {
		d.fail("core: truncated state blob (u8)")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *stateDec) i64() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("core: truncated state blob (varint)")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *stateDec) u64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("core: truncated state blob (uvarint)")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *stateDec) f64() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 8 {
		d.fail("core: truncated state blob (f64)")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

func (d *stateDec) str() string {
	n := d.u64()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)) {
		d.fail("core: state string length %d exceeds remaining %d bytes", n, len(d.b))
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *stateDec) bytes() []byte {
	n := d.u64()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)) {
		d.fail("core: state blob length %d exceeds remaining %d bytes", n, len(d.b))
		return nil
	}
	p := d.b[:n]
	d.b = d.b[n:]
	return p
}

func (d *stateDec) boolean() bool { return d.u8() != 0 }

func (d *stateDec) object() Object {
	return Object{
		ID:        ObjectID(d.str()),
		Size:      d.i64(),
		FetchCost: d.i64(),
		Site:      d.str(),
	}
}

// count reads a collection length, bounding it by the remaining bytes
// (every element costs at least one byte) so hostile lengths are
// rejected before allocation.
func (d *stateDec) count() int {
	n := d.u64()
	if d.err != nil {
		return 0
	}
	if n > uint64(len(d.b)) {
		d.fail("core: state collection length %d exceeds remaining %d bytes", n, len(d.b))
		return 0
	}
	return int(n)
}

func (d *stateDec) version(want uint8, what string) {
	if v := d.u8(); d.err == nil && v != want {
		d.fail("core: %s state version %d, want %d", what, v, want)
	}
}

func (d *stateDec) done() error {
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("core: %d trailing bytes in state blob", len(d.b))
	}
	return nil
}

// validObject rejects malformed objects in hostile blobs; on failure
// the decoder is poisoned and the caller's done() surfaces the error.
func (d *stateDec) validObject() Object {
	obj := d.object()
	if d.err == nil {
		if err := obj.Validate(); err != nil {
			d.fail("core: invalid object in state blob: %v", err)
		}
	}
	return obj
}

// ---- Rate-Profile ----

// SnapshotState implements StateSnapshotter: the cached entries with
// their rate-profile accumulators, plus the full out-of-cache episode
// table (open-episode state and completed-episode LAR history).
func (r *RateProfile) SnapshotState() []byte {
	var e stateEnc
	e.u8(rpStateVersion)
	e.i64(r.cfg.Capacity)
	e.i64(r.evictions)
	entries := r.entries.sorted()
	e.u64(uint64(len(entries)))
	for _, ent := range entries {
		e.object(ent.v.obj)
		e.i64(ent.v.loadTime)
		e.i64(ent.v.sumYield)
	}
	profiles := r.profiles.byObj.sorted()
	e.u64(uint64(len(profiles)))
	for _, ent := range profiles {
		p := ent.v
		e.str(string(ent.id))
		e.boolean(p.open)
		e.boolean(p.started)
		e.i64(p.start)
		e.i64(p.sumYield)
		e.f64(p.maxLARP)
		e.i64(p.lastAccess)
		e.u64(uint64(len(p.past)))
		for _, v := range p.past {
			e.f64(v)
		}
	}
	return e.b
}

// RestoreState implements StateSnapshotter. The receiver must be
// configured with the snapshot's capacity.
func (r *RateProfile) RestoreState(data []byte) error {
	d := stateDec{b: data}
	d.version(rpStateVersion, "rate-profile")
	capacity := d.i64()
	if d.err == nil && capacity != r.cfg.Capacity {
		return fmt.Errorf("core: rate-profile snapshot capacity %d, configured %d", capacity, r.cfg.Capacity)
	}
	evictions := d.i64()
	var entries objTable[*rpEntry]
	var used int64
	for i, n := 0, d.count(); i < n && d.err == nil; i++ {
		obj := d.validObject()
		ent := &rpEntry{obj: obj, loadTime: d.i64(), sumYield: d.i64()}
		if d.err != nil {
			break
		}
		if entries.find(obj) != nil {
			return fmt.Errorf("core: duplicate cached object %s in rate-profile state", obj.ID)
		}
		*entries.put(obj) = ent
		used += obj.Size
	}
	var profiles objTable[*profile]
	for i, n := 0, d.count(); i < n && d.err == nil; i++ {
		id := ObjectID(d.str())
		p := &profile{
			open:       d.boolean(),
			started:    d.boolean(),
			start:      d.i64(),
			sumYield:   d.i64(),
			maxLARP:    d.f64(),
			lastAccess: d.i64(),
		}
		m := d.count()
		for j := 0; j < m && d.err == nil; j++ {
			p.past = append(p.past, d.f64())
		}
		if d.err != nil {
			break
		}
		*profiles.put(Object{ID: id}) = p
	}
	if err := d.done(); err != nil {
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
// offset-absolute utilities) and the global offset, preserving every
// cached object's effective credit exactly.
func (l *Landlord) SnapshotState() []byte {
	var e stateEnc
	e.u8(llStateVersion)
	e.i64(l.cap)
	e.f64(l.offset)
	e.i64(l.evictions)
	encodeHeap(&e, l.heap)
	return e.b
}

// RestoreState implements StateSnapshotter.
func (l *Landlord) RestoreState(data []byte) error {
	d := stateDec{b: data}
	d.version(llStateVersion, "landlord")
	capacity := d.i64()
	if d.err == nil && capacity != l.cap {
		return fmt.Errorf("core: landlord snapshot capacity %d, configured %d", capacity, l.cap)
	}
	offset := d.f64()
	if d.err == nil && math.IsNaN(offset) {
		return fmt.Errorf("core: landlord snapshot has NaN offset")
	}
	evictions := d.i64()
	heap, items, used, err := decodeHeap(&d, "landlord", "credit")
	if err != nil {
		return err
	}
	if err := d.done(); err != nil {
		return err
	}
	if used > l.cap {
		return fmt.Errorf("core: landlord snapshot uses %d bytes over capacity %d", used, l.cap)
	}
	l.heap, l.items = heap, items
	l.used = used
	l.offset = offset
	l.evictions = evictions
	return nil
}

// ---- SizeClassMarking ----

// SnapshotState implements StateSnapshotter: the cached entries with
// their marks plus the phase's refused-fetch accumulator (size classes
// are recomputed from object sizes).
func (m *SizeClassMarking) SnapshotState() []byte {
	var e stateEnc
	e.u8(scmStateVersion)
	e.i64(m.cap)
	e.i64(m.phaseBypass)
	e.i64(m.evictions)
	entries := m.entries.sorted()
	e.u64(uint64(len(entries)))
	for _, ent := range entries {
		e.object(ent.v.obj)
		e.boolean(ent.v.marked)
	}
	return e.b
}

// RestoreState implements StateSnapshotter.
func (m *SizeClassMarking) RestoreState(data []byte) error {
	d := stateDec{b: data}
	d.version(scmStateVersion, "size-class-marking")
	capacity := d.i64()
	if d.err == nil && capacity != m.cap {
		return fmt.Errorf("core: size-class-marking snapshot capacity %d, configured %d", capacity, m.cap)
	}
	phaseBypass := d.i64()
	evictions := d.i64()
	var entries objTable[*scmEntry]
	var used int64
	for i, n := 0, d.count(); i < n && d.err == nil; i++ {
		obj := d.validObject()
		marked := d.boolean()
		if d.err != nil {
			break
		}
		if entries.find(obj) != nil {
			return fmt.Errorf("core: duplicate cached object %s in size-class-marking state", obj.ID)
		}
		*entries.put(obj) = &scmEntry{obj: obj, marked: marked, class: sizeClass(obj.Size)}
		used += obj.Size
	}
	if err := d.done(); err != nil {
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
	var e stateEnc
	e.u8(onlineStateVersion)
	e.str(o.aobj.Name())
	e.bytes(sub)
	encodeCounts(&e, &o.acc)
	return e.b
}

// RestoreState implements StateSnapshotter. The receiver must run the
// same subroutine the snapshot was taken over.
func (o *OnlineBY) RestoreState(data []byte) error {
	ss, ok := o.aobj.(StateSnapshotter)
	if !ok {
		return fmt.Errorf("core: online-by subroutine %s cannot restore state", o.aobj.Name())
	}
	d := stateDec{b: data}
	d.version(onlineStateVersion, "online-by")
	name := d.str()
	if d.err == nil && name != o.aobj.Name() {
		return fmt.Errorf("core: online-by snapshot over subroutine %q, configured %q", name, o.aobj.Name())
	}
	sub := d.bytes()
	acc := decodeCounts(&d)
	if err := d.done(); err != nil {
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
	var e stateEnc
	e.u8(spaceStateVersion)
	e.str(s.aobj.Name())
	e.bytes(sub)
	return e.b
}

// RestoreState implements StateSnapshotter.
func (s *SpaceEffBY) RestoreState(data []byte) error {
	ss, ok := s.aobj.(StateSnapshotter)
	if !ok {
		return fmt.Errorf("core: space-eff-by subroutine %s cannot restore state", s.aobj.Name())
	}
	d := stateDec{b: data}
	d.version(spaceStateVersion, "space-eff-by")
	name := d.str()
	if d.err == nil && name != s.aobj.Name() {
		return fmt.Errorf("core: space-eff-by snapshot over subroutine %q, configured %q", name, s.aobj.Name())
	}
	sub := d.bytes()
	if err := d.done(); err != nil {
		return err
	}
	return ss.RestoreState(sub)
}

// ---- in-line policies (shared heap machinery) ----

// encodeState appends the shared in-line cache state (heap items with
// their priorities) to e.
func (c *inlineCache) encodeState(e *stateEnc) {
	e.i64(c.cap)
	e.i64(c.evictions)
	encodeHeap(e, c.heap)
}

// encodeHeap appends a cache's heap — its objects with their
// utilities, in heap order, which decodeHeap rebuilds exactly.
func encodeHeap(e *stateEnc, h *bheap.Heap[Object]) {
	items := h.Items()
	e.u64(uint64(len(items)))
	for _, it := range items {
		e.object(it.Value)
		e.f64(it.Utility)
	}
}

// decodeHeap reads what encodeHeap wrote: the heap, each object's item
// and the bytes the objects occupy. what names the cache and utility its
// utility, for errors.
func decodeHeap(d *stateDec, what, utility string) (*bheap.Heap[Object], objTable[*bheap.Item[Object]], int64, error) {
	heap := bheap.New[Object](64)
	var items objTable[*bheap.Item[Object]]
	var used int64
	for i, n := 0, d.count(); i < n && d.err == nil; i++ {
		obj := d.validObject()
		u := d.f64()
		if d.err != nil {
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
	return heap, items, used, d.err
}

// encodeCounts appends a per-object count, in id order.
func encodeCounts(e *stateEnc, t *objTable[int64]) {
	ents := t.sorted()
	e.u64(uint64(len(ents)))
	for _, ent := range ents {
		e.str(string(ent.id))
		e.i64(ent.v)
	}
}

// decodeCounts reads what encodeCounts wrote.
func decodeCounts(d *stateDec) objTable[int64] {
	var t objTable[int64]
	for i, n := 0, d.count(); i < n && d.err == nil; i++ {
		id := ObjectID(d.str())
		*t.put(Object{ID: id}) = d.i64()
	}
	return t
}

// decodeState replaces the shared in-line cache state from d (onEvict
// hooks are preserved). The caller finishes with d.done().
func (c *inlineCache) decodeState(d *stateDec) error {
	capacity := d.i64()
	if d.err == nil && capacity != c.cap {
		return fmt.Errorf("core: %s snapshot capacity %d, configured %d", c.name, capacity, c.cap)
	}
	evictions := d.i64()
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

// SnapshotState implements StateSnapshotter.
func (l *LRU) SnapshotState() []byte {
	var e stateEnc
	e.u8(lruStateVersion)
	l.encodeState(&e)
	return e.b
}

// RestoreState implements StateSnapshotter.
func (l *LRU) RestoreState(data []byte) error {
	d := stateDec{b: data}
	d.version(lruStateVersion, "lru")
	if err := l.decodeState(&d); err != nil {
		return err
	}
	return d.done()
}

// SnapshotState implements StateSnapshotter.
func (l *LFU) SnapshotState() []byte {
	var e stateEnc
	e.u8(lfuStateVersion)
	l.encodeState(&e)
	encodeCounts(&e, &l.count)
	return e.b
}

// RestoreState implements StateSnapshotter.
func (l *LFU) RestoreState(data []byte) error {
	d := stateDec{b: data}
	d.version(lfuStateVersion, "lfu")
	// Decode the heap into a scratch copy first so a failure later in
	// the blob leaves the receiver untouched.
	scratch := l.inlineCache
	if err := scratch.decodeState(&d); err != nil {
		return err
	}
	count := decodeCounts(&d)
	if err := d.done(); err != nil {
		return err
	}
	l.inlineCache = scratch
	l.count = count
	return nil
}

// SnapshotState implements StateSnapshotter.
func (g *GDS) SnapshotState() []byte {
	var e stateEnc
	e.u8(gdsStateVersion)
	g.encodeState(&e)
	e.f64(g.l)
	return e.b
}

// RestoreState implements StateSnapshotter.
func (g *GDS) RestoreState(data []byte) error {
	d := stateDec{b: data}
	d.version(gdsStateVersion, "gds")
	scratch := g.inlineCache
	if err := scratch.decodeState(&d); err != nil {
		return err
	}
	inflation := d.f64()
	if err := d.done(); err != nil {
		return err
	}
	if math.IsNaN(inflation) {
		return fmt.Errorf("core: gds snapshot has NaN inflation value")
	}
	g.inlineCache = scratch
	g.l = inflation
	return nil
}

// SnapshotState implements StateSnapshotter.
func (g *GDSP) SnapshotState() []byte {
	var e stateEnc
	e.u8(gdspStateVersion)
	g.encodeState(&e)
	e.f64(g.l)
	encodeCounts(&e, &g.freq)
	return e.b
}

// RestoreState implements StateSnapshotter.
func (g *GDSP) RestoreState(data []byte) error {
	d := stateDec{b: data}
	d.version(gdspStateVersion, "gdsp")
	scratch := g.inlineCache
	if err := scratch.decodeState(&d); err != nil {
		return err
	}
	inflation := d.f64()
	if d.err == nil && math.IsNaN(inflation) {
		return fmt.Errorf("core: gdsp snapshot has NaN inflation value")
	}
	freq := decodeCounts(&d)
	if err := d.done(); err != nil {
		return err
	}
	g.inlineCache = scratch
	g.l = inflation
	g.freq = freq
	return nil
}

// SnapshotState implements StateSnapshotter: the heap plus the full
// per-object reference history (retained for uncached objects too, as
// LRU-K specifies).
func (l *LRUK) SnapshotState() []byte {
	var e stateEnc
	e.u8(lrukStateVersion)
	e.i64(int64(l.k))
	l.encodeState(&e)
	hist := l.hist.sorted()
	e.u64(uint64(len(hist)))
	for _, ent := range hist {
		e.str(string(ent.id))
		e.u64(uint64(len(ent.v)))
		for _, t := range ent.v {
			e.i64(t)
		}
	}
	return e.b
}

// RestoreState implements StateSnapshotter. The receiver must be
// configured with the snapshot's K.
func (l *LRUK) RestoreState(data []byte) error {
	d := stateDec{b: data}
	d.version(lrukStateVersion, "lru-k")
	k := d.i64()
	if d.err == nil && int(k) != l.k {
		return fmt.Errorf("core: lru-k snapshot K=%d, configured K=%d", k, l.k)
	}
	scratch := l.inlineCache
	if err := scratch.decodeState(&d); err != nil {
		return err
	}
	var hist objTable[[]int64]
	for i, n := 0, d.count(); i < n && d.err == nil; i++ {
		id := ObjectID(d.str())
		m := d.count()
		if d.err == nil && m > l.k {
			return fmt.Errorf("core: lru-k snapshot history for %s has %d entries, K=%d", id, m, l.k)
		}
		h := make([]int64, 0, l.k) // Access shifts within capacity k
		for j := 0; j < m && d.err == nil; j++ {
			h = append(h, d.i64())
		}
		if d.err != nil {
			break
		}
		*hist.put(Object{ID: id}) = h
	}
	if err := d.done(); err != nil {
		return err
	}
	l.inlineCache = scratch
	l.hist = hist
	return nil
}

// ---- NoCache ----

// SnapshotState implements StateSnapshotter (the baseline is
// stateless; the blob is just a version byte so warm restarts treat
// "none" uniformly).
func (NoCache) SnapshotState() []byte { return []byte{noneStateVersion} }

// RestoreState implements StateSnapshotter.
func (NoCache) RestoreState(data []byte) error {
	d := stateDec{b: data}
	d.version(noneStateVersion, "no-cache")
	return d.done()
}
