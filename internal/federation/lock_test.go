package federation_test

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"bypassyield/internal/federation"
)

// TestQueriesWaitForTheLockAwake: four callers on two Ps contend for
// the decision lock in a closed loop, and what the process's goroutines
// spend blocked on locks stays a fraction of a statement. With waiters
// that park on mu at once this reads 30–48 µs per statement on a quiet
// 2-CPU host (a fifth of the statements sleep, ~280 µs each); with
// waiters that stay on their CPU, 4–9 µs — the one statement in fifteen
// that was off its P for the whole budget while other queries ran, and
// the runtime's scheduler lock under Gosched. The figure is the whole
// process's and a busy host only ever adds to it (other packages' tests
// run beside this one), so the best of a few attempts is held to the
// bound.
func TestQueriesWaitForTheLockAwake(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector stretches every hold")
	}
	if runtime.NumCPU() < 2 {
		t.Skip("needs two CPUs for two callers to contend")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	m, sqls, stmts := benchFederation(t)
	runCallers(t, m, sqls, stmts, 4, len(stmts)) // warm the cache
	const bound = 20 * time.Microsecond
	best := time.Duration(math.MaxInt64)
	for try := 0; try < 8 && best >= bound; try++ {
		n := 3 * len(stmts)
		per := runCallers(t, m, sqls, stmts, 4, n) / time.Duration(n)
		t.Logf("attempt %d: %v blocked on locks per statement", try, per)
		best = min(best, per)
	}
	if best >= bound {
		t.Fatalf("goroutines blocked on locks for %v per statement at best, want < %v: queries are parking on the decision lock", best, bound)
	}
}

// sleepyJournal holds the decision lock a millisecond per access, far
// past any budget a waiter spends awake, and keeps what it was handed in
// the order it was handed it, and when each hold ended: holdEnd[Seq] is
// read once the query's last access has been journaled, under the lock.
// Before the first access of all it holds the lock until waiters queries
// are waiting for it, and notes when they all were (allAsked): each of
// them asked for the lock before then.
type sleepyJournal struct {
	waiters  int
	recs     []federation.JournalRecord
	holdEnd  map[int64]time.Time
	allAsked time.Time // zero when the waiters never all asked
}

func (j *sleepyJournal) JournalAccess(r federation.JournalRecord) {
	if len(j.recs) == 0 {
		for give := time.Now().Add(10 * time.Second); time.Now().Before(give); time.Sleep(50 * time.Microsecond) {
			if waitingForLock() == j.waiters {
				j.allAsked = time.Now()
				break
			}
		}
	}
	time.Sleep(time.Millisecond)
	j.recs = append(j.recs, r)
	j.holdEnd[r.T] = time.Now()
}

// waitingForLock counts the goroutines waiting for a mediator's decision
// lock, awake or asleep: those inside lockDecision, which a query enters
// once it has taken the time its wait is counted from.
func waitingForLock() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return bytes.Count(buf[:n], []byte("federation.(*Mediator).lockDecision("))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestLongHoldsAreSleptThrough: a hold a waiter cannot outwait. Sixteen
// callers start together against a journal that sleeps under the lock,
// and whose first hold lasts until the other fifteen are waiting for it;
// on one P and on two they all finish, having parked (a wait longer
// than the budget ends in Lock), the journal saw the decisions in Seq
// order, Σ decision yields = D_A, and each report's LockWaitUS covers
// the whole wait, awake and asleep: from its request to the end of the
// hold before its own.
func TestLongHoldsAreSleptThrough(t *testing.T) {
	const callers = 16
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			m, sqls, stmts := benchFederation(t)
			// Fresh Scratches from the pool, not used ones: making one of
			// those mediates on a federation of its own, in its lockDecision.
			zeroScratch(t)
			j := &sleepyJournal{waiters: callers - 1, holdEnd: map[int64]time.Time{}}
			m.SetJournal(j)

			all := make([]*federation.QueryReport, callers)
			start := make(chan struct{})
			var wg sync.WaitGroup
			for c := 0; c < callers; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					<-start
					rep, err := m.QueryStmt(sqls[c], stmts[c])
					if err != nil {
						t.Error(err)
						return
					}
					all[c] = rep
				}(c)
			}
			close(start)
			wg.Wait()
			if t.Failed() {
				t.FailNow()
			}
			if j.allAsked.IsZero() {
				t.Fatalf("the first hold never found the other %d queries waiting for the lock", j.waiters)
			}

			sort.Slice(all, func(a, b int) bool { return all[a].Seq < all[b].Seq })
			var yields int64
			parked, k := 0, 0
			for i, rep := range all {
				if rep.Seq != int64(i+1) {
					t.Fatalf("report %d has Seq %d", i, rep.Seq)
				}
				for _, d := range rep.Decisions {
					if k == len(j.recs) {
						t.Fatalf("journal ends before Seq %d's decisions", rep.Seq)
					}
					r := j.recs[k]
					k++
					if r.T != rep.Seq || r.Object != d.Object || r.Yield != d.Yield || r.Decision != d.Decision {
						t.Fatalf("journal record %d is %+v, Seq %d decided %+v", k-1, r, rep.Seq, d)
					}
					yields += d.Yield
				}
				if rep.LockWaitUS >= federation.LockSpin.Microseconds() {
					parked++
				}
				// Every query but the first holder's asked for the lock by
				// allAsked and could not have it before the hold before its
				// own ended: its wait must reach that end. A wait timed only
				// until the waiter gave up and slept falls a hold or more
				// short. LockWaitUS is cut to a whole microsecond, which is
				// all the slack given.
				if i > 0 {
					held := j.holdEnd[rep.Seq-1].Sub(j.allAsked)
					if timed := time.Duration(rep.LockWaitUS+1) * time.Microsecond; timed < held {
						t.Errorf("Seq %d was waiting for the lock %v before the hold before its own ended, and its wait reads %d µs",
							rep.Seq, held, rep.LockWaitUS)
					}
				}
			}
			if k != len(j.recs) {
				t.Fatalf("%d journal records for %d decisions", len(j.recs), k)
			}
			if acct := m.Accounting(); yields != acct.YieldBytes {
				t.Fatalf("Σ decision yields = %d, D_A = %d", yields, acct.YieldBytes)
			}
			// The first holder sleeps at least a millisecond with fifteen
			// callers behind it: each of them outlasts the budget.
			if parked < callers-1 {
				t.Fatalf("%d of %d queries waited past the %v budget, want at least %d", parked, len(all), federation.LockSpin, callers-1)
			}
		})
	}
}
