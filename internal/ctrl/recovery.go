// Controller recovery discipline: the control loop's own failure handling,
// wrapped around every recompile+apply operation (Step, Failover, Restore,
// ApplyPolicy).
//
//   - Bounded retry: an operation that fails — compile error, engine
//     rollback — is retried up to RetryPolicy.MaxAttempts times with
//     exponential backoff, deterministic seeded jitter, and an optional
//     wall-clock deadline. The engine's transactional apply makes this
//     safe: a failed attempt left the prior plane serving with state
//     intact, and the controller's own lineage (comp, reference matrix,
//     observation window) only advances after success.
//
//   - Circuit breaker, per operation kind: after BreakerPolicy.Threshold
//     consecutive exhausted operations the breaker opens — further calls
//     return ErrCircuitOpen immediately, the controller reports itself
//     degraded and keeps serving the last-known-good configuration (the
//     engine never stopped running it). After the cooldown one probe is
//     admitted (half-open); success closes the breaker, failure re-opens
//     it for another cooldown.
//
//   - Last-known-good cache: the most recent successfully applied
//     compilation, the anchor a degraded controller holds and the config
//     an operator (or snapd, eventually) can re-assert.
//
// All signals land on the engine's telemetry registry: retry and breaker
// transition counters, a per-op breaker-state gauge, and a degraded flag.
package ctrl

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime/debug"
	"sync"
	"time"

	"snap/internal/core"
	"snap/internal/telemetry"
)

// ErrCircuitOpen rejects an operation because its circuit breaker is open:
// the controller has seen too many consecutive failures and is holding the
// last-known-good configuration until the cooldown admits a probe. Match
// with errors.Is.
var ErrCircuitOpen = errors.New("ctrl: circuit breaker open")

// RetryPolicy bounds the retry loop around one controller operation.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries (first attempt included).
	// 0 → 1: no retry, the historical fail-fast behavior.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry, doubling per
	// attempt. 0 → 10ms.
	BaseDelay time.Duration
	// MaxDelay caps the backoff. 0 → 1s.
	MaxDelay time.Duration
	// Deadline bounds the whole operation (attempts + backoff) in wall
	// time; a retry whose backoff would cross it is not taken. 0 → none.
	Deadline time.Duration
	// JitterSeed seeds the deterministic jitter source (up to half the
	// backoff is added per retry). Seeded — never global randomness — so
	// reproducible harnesses stay reproducible.
	JitterSeed int64
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 1
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 10 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = time.Second
	}
	return p
}

// BreakerPolicy configures the per-operation circuit breakers.
type BreakerPolicy struct {
	// Threshold is the consecutive exhausted-operation count that opens
	// the breaker. 0 → 3.
	Threshold int
	// Cooldown is how long an open breaker rejects before admitting a
	// half-open probe. 0 → 5s.
	Cooldown time.Duration
}

func (p BreakerPolicy) withDefaults() BreakerPolicy {
	if p.Threshold <= 0 {
		p.Threshold = 3
	}
	if p.Cooldown <= 0 {
		p.Cooldown = 5 * time.Second
	}
	return p
}

// BreakerState is one circuit breaker's position.
type BreakerState int

const (
	// BreakerClosed admits operations normally.
	BreakerClosed BreakerState = iota
	// BreakerHalfOpen admits one probe after a cooldown; its outcome
	// closes or re-opens the breaker.
	BreakerHalfOpen
	// BreakerOpen rejects operations with ErrCircuitOpen.
	BreakerOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// breaker is one operation kind's circuit. All fields are guarded by
// recoveryState.mu — the telemetry scrape reads states concurrently with
// the (single-goroutine) control loop.
type breaker struct {
	state       BreakerState
	consecutive int
	openedAt    time.Time
}

// recoveryState is the controller's recovery bookkeeping. sleep and now
// are test hooks (in-package tests swap them for a fake clock); the rng
// is the seeded jitter source.
type recoveryState struct {
	mu       sync.Mutex
	breakers map[string]*breaker
	rng      *rand.Rand
	retries  int64
	lastGood *core.Compilation
	sleep    func(time.Duration)
	now      func() time.Time
	// retryVec and transitionVec count retries and breaker transitions on
	// the engine's registry; nil without one.
	retryVec, transitionVec *telemetry.CounterVec
}

func newRecoveryState(seed int64, lastGood *core.Compilation) *recoveryState {
	if seed == 0 {
		seed = 1
	}
	return &recoveryState{
		breakers: map[string]*breaker{},
		rng:      rand.New(rand.NewSource(seed)),
		lastGood: lastGood,
		sleep:    time.Sleep,
		now:      time.Now,
	}
}

func (r *recoveryState) breakerFor(op string) *breaker {
	br := r.breakers[op]
	if br == nil {
		br = &breaker{}
		r.breakers[op] = br
	}
	return br
}

// withRecovery runs one operation's fallible body (recompile + apply)
// under the breaker and the retry loop. The body must be repeatable: on
// error it must have mutated nothing the next attempt depends on — which
// the engine's transactional apply and the commit-after-success structure
// of reconfigure guarantee.
func (c *Controller) withRecovery(op string, body func() error) error {
	bp := c.opts.Breaker.withDefaults()
	r := c.rec
	r.mu.Lock()
	br := r.breakerFor(op)
	switch br.state {
	case BreakerOpen:
		if r.now().Sub(br.openedAt) < bp.Cooldown {
			r.mu.Unlock()
			return fmt.Errorf("%w (op %s, cooling down)", ErrCircuitOpen, op)
		}
		c.breakerTransition(br, op, BreakerHalfOpen)
	}
	r.mu.Unlock()

	rp := c.opts.Retry.withDefaults()
	var deadline time.Time
	if rp.Deadline > 0 {
		deadline = r.now().Add(rp.Deadline)
	}
	var err error
	for attempt := 1; ; attempt++ {
		if err = body(); err == nil {
			r.mu.Lock()
			br.consecutive = 0
			if br.state != BreakerClosed {
				c.breakerTransition(br, op, BreakerClosed)
			}
			r.mu.Unlock()
			return nil
		}
		if attempt >= rp.MaxAttempts {
			break
		}
		delay := rp.BaseDelay << (attempt - 1)
		if delay <= 0 || delay > rp.MaxDelay {
			delay = rp.MaxDelay
		}
		r.mu.Lock()
		delay += time.Duration(r.rng.Int63n(int64(delay)/2 + 1))
		r.mu.Unlock()
		if !deadline.IsZero() && r.now().Add(delay).After(deadline) {
			break
		}
		r.mu.Lock()
		r.retries++
		r.mu.Unlock()
		if v := r.retryVec; v != nil {
			v.With(op).Inc()
		}
		r.sleep(delay)
	}

	// Exhausted. One exhausted operation is one breaker strike; a
	// half-open probe that failed re-opens immediately.
	r.mu.Lock()
	br.consecutive++
	if br.state == BreakerHalfOpen || br.consecutive >= bp.Threshold {
		br.openedAt = r.now()
		if br.state != BreakerOpen {
			c.breakerTransition(br, op, BreakerOpen)
		}
	}
	r.mu.Unlock()
	return err
}

// breakerTransition flips a breaker's state and counts it. Caller holds
// rec.mu.
func (c *Controller) breakerTransition(br *breaker, op string, to BreakerState) {
	br.state = to
	if v := c.rec.transitionVec; v != nil {
		v.With(op, to.String()).Inc()
	}
}

// commitGood advances the controller's lineage after a successful apply:
// the new compilation becomes both the current head and the last-known-good
// anchor a degraded controller holds.
func (c *Controller) commitGood(next *core.Compilation) {
	c.comp = next
	c.rec.mu.Lock()
	c.rec.lastGood = next
	c.rec.mu.Unlock()
}

// containPanic is the deferred panic envelope of every controller
// operation: a panic in compile, planning or apply code becomes a returned
// error, with the stack captured in the span log — the control loop caller
// survives to retry or degrade rather than crashing the process.
func (c *Controller) containPanic(op string, err *error) {
	v := recover()
	if v == nil {
		return
	}
	*err = fmt.Errorf("ctrl: contained panic in %s: %v", op, v)
	if reg := c.eng.Telemetry(); reg != nil {
		reg.Spans.Record(telemetry.Span{
			Kind:     "panic",
			Scenario: op,
			Detail:   fmt.Sprintf("%v\n%s", v, debug.Stack()),
			Start:    time.Now(),
		})
	}
}

// BreakerState reports the circuit state of one operation kind
// ("reconfig", "failover", "restore", "policy").
func (c *Controller) BreakerState(op string) BreakerState {
	c.rec.mu.Lock()
	defer c.rec.mu.Unlock()
	if br, ok := c.rec.breakers[op]; ok {
		return br.state
	}
	return BreakerClosed
}

// Degraded reports whether any operation's breaker is open or half-open:
// the controller is refusing (or probing) that operation and holding the
// last-known-good configuration.
func (c *Controller) Degraded() bool {
	c.rec.mu.Lock()
	defer c.rec.mu.Unlock()
	for _, br := range c.rec.breakers {
		if br.state != BreakerClosed {
			return true
		}
	}
	return false
}

// LastGood returns the most recent compilation that was successfully
// applied to the engine (the initial compilation before any
// reconfiguration succeeds). This is the configuration a degraded
// controller keeps serving.
func (c *Controller) LastGood() *core.Compilation {
	c.rec.mu.Lock()
	defer c.rec.mu.Unlock()
	return c.rec.lastGood
}

// Retries counts retry attempts taken across all operations since the
// controller was built.
func (c *Controller) Retries() int64 {
	c.rec.mu.Lock()
	defer c.rec.mu.Unlock()
	return c.rec.retries
}

// registerRecoveryMetrics wires the retry and breaker counters and the
// breaker/degraded gauges onto the engine's registry (idempotent per series
// name; called from New), so a scrape lists them before the first failure.
func (c *Controller) registerRecoveryMetrics() {
	reg := c.eng.Telemetry()
	if reg == nil {
		return
	}
	c.rec.retryVec = reg.CounterVec("snap_ctrl_retries_total",
		"Controller operation retries after a failed recompile or apply, by operation.",
		"op")
	c.rec.transitionVec = reg.CounterVec("snap_ctrl_breaker_transitions_total",
		"Circuit-breaker state transitions by operation and target state.",
		"op", "to")
	reg.GaugeFunc("snap_ctrl_degraded",
		"1 while any controller operation's circuit breaker is open or half-open.",
		nil, func(emit telemetry.Emit) {
			v := 0.0
			if c.Degraded() {
				v = 1
			}
			emit(nil, v)
		})
	reg.GaugeFunc("snap_ctrl_breaker_state",
		"Per-operation circuit-breaker state: 0 closed, 1 half-open, 2 open.",
		[]string{"op"}, func(emit telemetry.Emit) {
			c.rec.mu.Lock()
			defer c.rec.mu.Unlock()
			for op, br := range c.rec.breakers {
				emit([]string{op}, float64(br.state))
			}
		})
}
