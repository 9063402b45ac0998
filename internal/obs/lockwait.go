// Lock-wait accounting: sampled wait/hold timers around the system's
// contended mutexes (the index tree's writer lock, the WAL append lock),
// exported per lock class as the fovr_lock_wait_ns / fovr_lock_hold_ns
// histograms.
//
// The contract mirrors the query-trace path: with sampling off the
// instrumented acquisition costs one atomic load of a read-mostly
// global and allocates nothing (AllocsPerRun-guarded in the tests).
// With sampling on, 1 in N acquisitions per class takes two extra
// timestamps; the rest still pay only two uncontended atomic adds.
package obs

import (
	"fmt"
	"sync/atomic"
	"time"
)

// lockSampleRate is the process-wide sampling rate: 1 in N lock
// acquisitions is timed; 0 disables accounting entirely.
var lockSampleRate atomic.Int64

// SetLockSampleRate sets the process-wide lock sampling rate to 1-in-n.
// n <= 0 turns lock accounting off, which restores the zero-allocation,
// zero-timestamp fast path on every instrumented acquisition.
func SetLockSampleRate(n int) {
	if n < 0 {
		n = 0
	}
	lockSampleRate.Store(int64(n))
}

// LockSampleRate returns the current process-wide sampling rate (0 =
// off).
func LockSampleRate() int { return int(lockSampleRate.Load()) }

// LockClass aggregates wait/hold timing for one class of lock rather
// than per instance: the operator question is "which kind of lock
// blocks", and per-class histograms keep metric cardinality fixed
// however many instances share the class.
type LockClass struct {
	wait *Histogram // fovr_lock_wait_ns{class=...}: Lock() call to acquisition
	hold *Histogram // fovr_lock_hold_ns{class=...}: acquisition to release
	acqs *Counter   // acquisitions observed while sampling was enabled
	samp *Counter   // acquisitions actually timed
	tick atomic.Uint64
}

// LockClass returns the registry's lock class with the given name,
// creating its histograms and counters on first use. Calling it twice
// with the same class yields views over the same underlying metrics.
func (r *Registry) LockClass(class string) *LockClass {
	return &LockClass{
		wait: r.NsHistogram(fmt.Sprintf("fovr_lock_wait_ns{class=%q}", class)),
		hold: r.NsHistogram(fmt.Sprintf("fovr_lock_hold_ns{class=%q}", class)),
		acqs: r.Counter(fmt.Sprintf("fovr_lock_acquisitions_total{class=%q}", class)),
		samp: r.Counter(fmt.Sprintf("fovr_lock_sampled_total{class=%q}", class)),
	}
}

// LockTimer times one lock acquisition. It is a plain stack value; the
// zero value (an unsampled or uninstrumented acquisition) no-ops on
// every method, so call sites need no branches:
//
//	lt := class.Start()
//	mu.Lock()
//	lt.Acquired()
//	... critical section ...
//	mu.Unlock()
//	lt.Released()
type LockTimer struct {
	lc       *LockClass
	start    time.Time
	acquired time.Time
}

// Start begins timing an acquisition if this one is sampled. Safe on a
// nil class (uninstrumented construction): the returned zero timer
// no-ops. With sampling off this takes no timestamps and allocates
// nothing.
func (lc *LockClass) Start() LockTimer {
	if lc == nil {
		return LockTimer{}
	}
	rate := lockSampleRate.Load()
	if rate <= 0 {
		return LockTimer{}
	}
	lc.acqs.Inc()
	if lc.tick.Add(1)%uint64(rate) != 0 {
		return LockTimer{}
	}
	return LockTimer{lc: lc, start: time.Now()}
}

// Acquired records the wait time (Start to now). Call immediately after
// the Lock()/RLock() returns.
func (t *LockTimer) Acquired() {
	if t.lc == nil {
		return
	}
	t.acquired = time.Now()
	t.lc.samp.Inc()
	t.lc.wait.Observe(float64(t.acquired.Sub(t.start).Nanoseconds()))
}

// Released records the hold time (Acquired to now). Call immediately
// after the Unlock()/RUnlock().
func (t *LockTimer) Released() {
	if t.lc == nil {
		return
	}
	t.lc.hold.Observe(float64(time.Since(t.acquired).Nanoseconds()))
}
