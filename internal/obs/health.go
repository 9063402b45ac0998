// Component health evaluation. A HealthSet holds named checkers —
// store, index, replica — each of which reports a HealthState plus
// machine-readable reasons. Evaluate runs them all and folds the
// component states into an overall verdict: the report is what /healthz
// serves, and the overall state is what decides the HTTP status (a
// failing node answers 503 so load balancers and the cluster router's
// health probes stop sending it work). States are ordered: ok < degraded <
// failing; the overall state is the worst component state.
package obs

import (
	"sort"
	"sync"
	"time"
)

// HealthState is a component's evaluated condition.
type HealthState string

const (
	// HealthOK: the component is operating normally.
	HealthOK HealthState = "ok"
	// HealthDegraded: operating, but outside normal bounds — worth a
	// look, not worth failing traffic over.
	HealthDegraded HealthState = "degraded"
	// HealthFailing: the component cannot do its job (e.g. the store
	// has a sticky fsync failure and every ingest loses durability).
	HealthFailing HealthState = "failing"
)

// rank orders states by severity for worst-of folding.
func (s HealthState) rank() int {
	switch s {
	case HealthDegraded:
		return 1
	case HealthFailing:
		return 2
	}
	return 0
}

// Worse returns the more severe of s and o.
func (s HealthState) Worse(o HealthState) HealthState {
	if o.rank() > s.rank() {
		return o
	}
	return s
}

// HealthCheck is one component's evaluated result.
type HealthCheck struct {
	Component string      `json:"component"`
	State     HealthState `json:"state"`
	// Reasons are machine-readable strings explaining any non-ok state,
	// e.g. "store: sticky fsync failure" — stable enough to alert on.
	Reasons []string `json:"reasons,omitempty"`
	// Details are informational key/values (lag bytes, entry counts)
	// reported even when healthy.
	Details map[string]any `json:"details,omitempty"`
}

// HealthReport is the full /healthz payload.
type HealthReport struct {
	State  HealthState   `json:"state"`
	Checks []HealthCheck `json:"checks"`
	// EvaluatedAt is when the checkers ran, RFC3339.
	EvaluatedAt string `json:"evaluated_at"`
}

// Checker evaluates one component. Implementations must be safe for
// concurrent use; they are called on every /healthz request.
type Checker func() HealthCheck

// HealthSet is a registry of component checkers.
type HealthSet struct {
	mu       sync.RWMutex
	checkers map[string]Checker
}

// NewHealthSet creates an empty checker registry.
func NewHealthSet() *HealthSet {
	return &HealthSet{checkers: make(map[string]Checker)}
}

// Register installs (or replaces) the checker for component name.
func (h *HealthSet) Register(name string, c Checker) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.checkers[name] = c
}

// Evaluate runs every registered checker and folds the results. Checks
// are sorted by component name so the report is stable.
func (h *HealthSet) Evaluate() HealthReport {
	h.mu.RLock()
	names := make([]string, 0, len(h.checkers))
	for name := range h.checkers {
		names = append(names, name)
	}
	checkers := make([]Checker, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		checkers = append(checkers, h.checkers[name])
	}
	h.mu.RUnlock()

	report := HealthReport{
		State:       HealthOK,
		EvaluatedAt: time.Now().UTC().Format(time.RFC3339),
	}
	for i, c := range checkers {
		check := c()
		if check.Component == "" {
			check.Component = names[i]
		}
		if check.State == "" {
			check.State = HealthOK
		}
		report.State = report.State.Worse(check.State)
		report.Checks = append(report.Checks, check)
	}
	return report
}
