// Router health: the cluster-level /healthz the obs.HealthSet doc
// always promised a query router. Per-partition checkers probe every
// node and grade what the scatter path can still do — degraded while a
// replica can cover for a dead leader, failing once a partition's
// window ranges have no live owner at all — and a hedge-saturation
// checker flags the regime where every query is paying the hedge.
package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"fovr/internal/obs"
)

// registerHealthChecks wires the router's checkers: one per partition
// plus the hedge-saturation signal.
func (rt *Router) registerHealthChecks() {
	for _, rp := range rt.parts {
		rt.health.Register("partition:"+rp.part.ID, rt.partitionCheck(rp))
	}
	rt.health.Register("hedging", rt.hedgeCheck())
}

// partitionCheck probes every node of one partition concurrently and
// grades the partition:
//
//   - every node answering        → ok
//   - leader up, replica(s) down  → degraded (less hedge headroom)
//   - leader down, replica up     → degraded (reads hedge to replicas,
//     writes stall until restart-promotion or a topology edit)
//   - no node answering           → failing: the partition's window
//     ranges have no live owner, so scattered queries over them fail
func (rt *Router) partitionCheck(rp *routerPartition) obs.Checker {
	return func() obs.HealthCheck {
		eps := rp.part.Endpoints()
		up := make([]bool, len(eps))
		var wg sync.WaitGroup
		for i := range rp.clients {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.ProbeTimeout)
				defer cancel()
				_, err := rp.clients[i].Healthz(ctx)
				up[i] = err == nil
			}(i)
		}
		wg.Wait()

		check := obs.HealthCheck{
			Component: "partition:" + rp.part.ID,
			State:     obs.HealthOK,
			Details: map[string]any{
				"leader":   rp.part.Leader,
				"replicas": len(rp.part.Replicas),
			},
		}
		live := 0
		for _, ok := range up {
			if ok {
				live++
			}
		}
		check.Details["live"] = live
		switch {
		case live == 0:
			check.State = obs.HealthFailing
			check.Reasons = append(check.Reasons,
				fmt.Sprintf("no live owner: every node of partition %q unreachable, its window ranges are unservable", rp.part.ID))
		case !up[0]:
			check.State = obs.HealthDegraded
			check.Reasons = append(check.Reasons,
				fmt.Sprintf("leader %s unreachable; %d replica(s) serving hedged reads, writes stalled", rp.part.Leader, live))
		case live < len(eps):
			check.State = obs.HealthDegraded
			for i, ok := range up {
				if !ok {
					check.Reasons = append(check.Reasons, fmt.Sprintf("replica %s unreachable", eps[i]))
				}
			}
		}
		return check
	}
}

// hedgeCheck degrades when every query since the last evaluation fired
// a hedge: the cluster still answers, but nothing is answering within
// the latency threshold — typically one node limping rather than dead.
func (rt *Router) hedgeCheck() obs.Checker {
	var lastTotal, lastHedged int64
	var mu sync.Mutex
	return func() obs.HealthCheck {
		mu.Lock()
		defer mu.Unlock()
		total := rt.queriesTotal.Load()
		hedged := rt.queriesHedged.Load()
		dTotal, dHedged := total-lastTotal, hedged-lastHedged
		lastTotal, lastHedged = total, hedged
		check := obs.HealthCheck{
			Component: "hedging",
			State:     obs.HealthOK,
			Details: map[string]any{
				"queries":       dTotal,
				"hedgedQueries": dHedged,
			},
		}
		if dTotal > 0 && dHedged == dTotal {
			check.State = obs.HealthDegraded
			check.Reasons = append(check.Reasons,
				fmt.Sprintf("all %d queries since last check fired hedges: no endpoint answering within %v", dTotal, rt.cfg.HedgeAfter))
		}
		return check
	}
}

// RouterHealthzResponse is the router's /healthz payload.
type RouterHealthzResponse struct {
	obs.HealthReport
	UptimeSeconds float64 `json:"uptimeSeconds"`
	Partitions    int     `json:"partitions"`
}

// handleHealthz mirrors the single-node contract: 200 for ok and
// degraded (the router still serves), 503 for failing.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	report := rt.health.Evaluate()
	resp := RouterHealthzResponse{
		HealthReport:  report,
		UptimeSeconds: time.Since(rt.started).Seconds(),
		Partitions:    len(rt.topo.Partitions),
	}
	code := http.StatusOK
	if report.State == obs.HealthFailing {
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	data, err := json.Marshal(resp)
	if err != nil {
		return
	}
	_, _ = w.Write(data)
}
