// Package core implements the bypass-yield caching model of Malik,
// Burns, and Chaudhary (ICDE 2005): yield-sensitive metrics (BYHR,
// BYU), the workload-driven Rate-Profile algorithm, the competitive
// OnlineBY algorithm, the randomized space-efficient SpaceEffBY
// algorithm, and the baseline policies the paper compares against
// (GDS, LRU, static-optimal caching, and no caching).
//
// The model: a proxy cache is collocated with a federation mediator.
// Every query is decomposed into per-object accesses, each carrying a
// yield — the number of result bytes attributable to that object. For
// each access the cache decides to serve it from cache (zero WAN
// traffic), bypass it to the owning server (WAN traffic equal to the
// yield, scaled by the object's per-byte transfer cost), or load the
// object (WAN traffic equal to the fetch cost) and then serve it. The
// objective is altruistic: minimize total WAN traffic, not local
// response time.
package core

import "fmt"

// ObjectID uniquely identifies a cacheable database object within the
// federation, e.g. "edr/photoobj" for a table or "edr/photoobj.ra" for
// a column.
type ObjectID string

// Object describes a cacheable database object: a relational table, a
// column, or a materialized view.
type Object struct {
	// ID is the object's unique identifier.
	ID ObjectID
	// Size is the object's storage size in bytes (the cache space it
	// occupies when loaded).
	Size int64
	// FetchCost is the network cost, in bytes, of loading the object
	// into the cache from its home site. On uniform networks
	// FetchCost == Size (the paper's f_i = c·s_i with c = 1).
	FetchCost int64
	// Site names the federation site that owns the object.
	Site string
	// Slot is the object's 1-based place in the universe that built it
	// (federation's object index numbers its objects), 0 for none. A
	// policy finds the object's state at that place instead of hashing
	// ID, but only after checking that the state there is ID's: a slot
	// is a hint, and two universes may number different objects alike.
	// Slots are not persisted: state restored from a snapshot is found
	// by id until the object is first seen with its slot.
	Slot int32
}

// Validate reports whether the object is well formed.
func (o Object) Validate() error {
	if o.ID == "" {
		return fmt.Errorf("core: object has empty ID")
	}
	if o.Size <= 0 {
		return fmt.Errorf("core: object %s has non-positive size %d", o.ID, o.Size)
	}
	if o.FetchCost <= 0 {
		return fmt.Errorf("core: object %s has non-positive fetch cost %d", o.ID, o.FetchCost)
	}
	return nil
}

// BypassCost returns the WAN cost, in bytes, of bypassing a query with
// the given yield against this object: c(q) = (y/s)·f per Section 5.2
// of the paper. On uniform networks (f = s) this is exactly the yield.
func (o Object) BypassCost(yield int64) int64 {
	if o.FetchCost == o.Size {
		return yield
	}
	// Scale by the object's per-byte transfer cost. Use float math:
	// yields and costs are large (bytes), so the rounding error is
	// negligible relative to the quantities involved.
	return int64(float64(yield) * float64(o.FetchCost) / float64(o.Size))
}

// Access is a single query's demand against one object: the object
// referenced and the yield (result bytes) attributable to it.
type Access struct {
	// Object identifies the referenced object.
	Object ObjectID
	// Yield is the number of result bytes the query derives from this
	// object. A yield of zero is legal (an empty result).
	Yield int64
}

// Request is one federation query after yield decomposition: the
// original SQL (if known) and the per-object accesses.
type Request struct {
	// Seq is the request's position in the trace; the paper measures
	// time in queries, so Seq is the clock.
	Seq int64
	// SQL optionally carries the originating statement.
	SQL string
	// Accesses lists the per-object demands of the query.
	Accesses []Access
}

// Decision is the outcome of presenting one access to a policy.
type Decision uint8

const (
	// Hit: the object was in cache; the access is served locally with
	// zero WAN traffic.
	Hit Decision = iota
	// Bypass: the sub-query is shipped to the owning server and only
	// the result returns; WAN traffic equals the access's bypass cost.
	Bypass
	// Load: the object is fetched into the cache (WAN traffic equals
	// the fetch cost) and the access is then served from cache.
	Load
)

// String returns the decision name.
func (d Decision) String() string {
	switch d {
	case Hit:
		return "hit"
	case Bypass:
		return "bypass"
	case Load:
		return "load"
	default:
		return fmt.Sprintf("Decision(%d)", uint8(d))
	}
}
