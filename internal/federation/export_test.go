package federation

import "bypassyield/internal/sqlparse"

// ReferenceDecompose is the name-based decomposition Decompose
// replaced (reference_test.go), for the external test package, which
// may import the workload streams this package may not.
var ReferenceDecompose = referenceDecompose

// LockSpin is how long a query waits for the decision lock awake.
const LockSpin = lockSpin

// NewScratch swaps where Query and QueryStmt get their Scratch, and
// returns what puts the old source back.
func NewScratch(f func() *Scratch) (restore func()) {
	old := newScratch
	newScratch = f
	return func() { newScratch = old }
}

// MediateTraced is QueryStmt under a trace id: the statement sized and
// mediated in a Scratch from newScratch, with no ship.
func (m *Mediator) MediateTraced(sql string, stmt *sqlparse.SelectStmt, traceID string) (*QueryReport, error) {
	return m.mediate(newScratch(), sql, stmt, traceID, nil, false)
}
