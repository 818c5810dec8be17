package federation

import "bypassyield/internal/sqlparse"

// ReferenceDecompose is the name-based decomposition Decompose
// replaced (reference_test.go), for the external test package, which
// may import the workload streams this package may not.
var ReferenceDecompose = referenceDecompose

// LockSpin is how long a query waits for the decision lock awake.
const LockSpin = lockSpin

// MaxPooledLen is the longest list of a Scratch the pool keeps.
const MaxPooledLen = maxPooledLen

// PoolScratch makes the pool Query and QueryStmt mediate in hand out
// what fresh returns when it has no Scratch, and scramble every Scratch
// put back when scramble is set. It returns what puts the old settings
// back. No query may run meanwhile.
func PoolScratch(fresh func() *Scratch, scramble bool) (restore func()) {
	oldNew, oldScramble := scratchPool.New, scramblePooled
	scratchPool.New = func() any { return fresh() }
	scramblePooled = scramble
	return func() { scratchPool.New, scramblePooled = oldNew, oldScramble }
}

// DrainScratchPool takes Scratches from the pool Query and QueryStmt
// mediate in until it has none to hand out: on one P, that empties it.
// No query may run meanwhile.
func DrainScratchPool() {
	fresh := scratchPool.New
	scratchPool.New = nil
	for scratchPool.Get() != nil {
	}
	scratchPool.New = fresh
}

// MediateTraced is QueryStmt under a trace id: the statement sized and
// mediated in a pooled Scratch, with no ship, and the report copied out.
func (m *Mediator) MediateTraced(sql string, stmt *sqlparse.SelectStmt, traceID string) (*QueryReport, error) {
	return m.mediatePooled(getScratch(), sql, stmt, traceID)
}
