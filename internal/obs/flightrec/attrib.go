package flightrec

import "sort"

// attribute computes the exemplar's critical-path breakdown: which
// phase the query's wall time is blocked on. The query pipeline is
// serial (execute → decide-wait → decide → legs → encode) except the
// WAN legs, which run in parallel — so only the critical leg (the one
// finishing last) can be on the blocking path, and its time splits
// into pool wait vs. wire round trip. Time none of the instrumented
// phases account for goes to "runtime-gc" when a GC cycle ended
// inside the query window, else to "other" (scheduler delay,
// uninstrumented glue).
func attribute(e *Exemplar) {
	points := make([]CausePoint, 0, 8)
	var accounted int64
	add := func(cause string, us int64) {
		if us > 0 {
			points = append(points, CausePoint{Cause: cause, US: us})
			accounted += us
		}
	}
	add(CauseExecute, e.ExecUS)
	add(CauseDecideWait, e.DecideWaitUS)
	add(CauseDecide, e.DecideUS)
	add(CauseEncode, e.EncodeUS)

	var crit *LegRec
	for i := range e.Legs {
		l := &e.Legs[i]
		if crit == nil || l.StartUS+l.WallUS > crit.StartUS+crit.WallUS {
			crit = l
		}
	}
	if crit != nil {
		add(CausePoolWait, crit.PoolWaitUS)
		wan := crit.RPCUS
		if slack := crit.WallUS - crit.PoolWaitUS - crit.RPCUS; slack > 0 {
			// Failed attempts and retry backoff land in wall time but not
			// in the final RPC; they are still time spent on that site.
			wan += slack
		}
		add("wan:"+crit.Site, wan)
	}

	if other := e.DurUS - accounted; other > 0 {
		start := e.Start.UnixNano()
		end := start + e.DurUS*1000
		gcEnd := e.Runtime.LastGCUnixNano
		if gcEnd >= start && gcEnd <= end && e.Runtime.LastGCPauseUS > 0 {
			gc := e.Runtime.LastGCPauseUS
			if gc > other {
				gc = other
			}
			add(CauseRuntimeGC, gc)
			other -= gc
		}
		add(CauseOther, other)
	}

	sort.Slice(points, func(i, j int) bool {
		if points[i].US != points[j].US {
			return points[i].US > points[j].US
		}
		return points[i].Cause < points[j].Cause
	})
	e.Attribution = points
	if len(points) > 0 {
		e.Cause = points[0].Cause
		e.CauseUS = points[0].US
	}
}
