// Package admission implements the multi-tenant admission surface of
// the scheduling service (DESIGN.md §15): a strictly validated JSON
// policy configuration, per-tenant token-bucket rate limiting, and a
// bounded priority queue with pluggable ordering disciplines.
//
// The policy config declares SLO classes (each with an integer
// priority), per-tenant buckets (rate/burst) bound to a class, and the
// queue discipline: "fcfs" (arrival order), "priority-fcfs" (class
// priority, arrival order within a class), or "sjf" (shortest predicted
// job first by Φ, arrival order among ties). Decoding is strict —
// unknown fields, unknown policies, non-finite or negative rates, and
// tenants naming undeclared classes all fail with errs.ErrBadPolicy — so
// a service refuses to boot over a config it cannot honor rather than
// admitting traffic under a misread policy.
package admission

import (
	"bytes"
	"container/heap"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"paradigm/internal/errs"
)

// Policy is the queue ordering discipline.
type Policy uint8

const (
	// FCFS serves jobs in arrival order.
	FCFS Policy = iota
	// PriorityFCFS serves the highest class priority first, arrival
	// order within a class.
	PriorityFCFS
	// SJF serves the lowest predicted Φ first (shortest job first),
	// arrival order among ties.
	SJF
)

// String renders the policy's config spelling.
func (p Policy) String() string {
	switch p {
	case FCFS:
		return "fcfs"
	case PriorityFCFS:
		return "priority-fcfs"
	case SJF:
		return "sjf"
	default:
		return fmt.Sprintf("policy(%d)", uint8(p))
	}
}

// ParsePolicy maps a config spelling to its Policy. The empty string
// selects FCFS.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "fcfs":
		return FCFS, nil
	case "priority-fcfs":
		return PriorityFCFS, nil
	case "sjf":
		return SJF, nil
	default:
		return 0, fmt.Errorf("admission: %w: unknown queue policy %q (want fcfs, priority-fcfs, or sjf)", errs.ErrBadPolicy, s)
	}
}

// Class is one SLO class.
type Class struct {
	// Priority orders classes under priority-fcfs: higher is served
	// first.
	Priority int `json:"priority"`
}

// Tenant is one tenant's admission contract.
type Tenant struct {
	// Class names a declared SLO class; empty means priority 0.
	Class string `json:"class,omitempty"`
	// Rate is the sustained admission rate in jobs/second; 0 disables
	// rate limiting for the tenant.
	Rate float64 `json:"rate,omitempty"`
	// Burst is the token-bucket capacity (peak back-to-back admissions);
	// 0 defaults to max(1, Rate).
	Burst float64 `json:"burst,omitempty"`
}

// Config is the service admission policy.
type Config struct {
	// QueuePolicy selects the discipline: "fcfs" (default),
	// "priority-fcfs", or "sjf".
	QueuePolicy string `json:"queue_policy,omitempty"`
	// Classes declares the SLO classes tenants may reference.
	Classes map[string]Class `json:"classes,omitempty"`
	// Tenants maps tenant names to their admission contracts.
	Tenants map[string]Tenant `json:"tenants,omitempty"`
	// Default, when non-nil, is the contract applied to tenants not
	// listed in Tenants; nil admits unknown tenants unlimited at
	// priority 0.
	Default *Tenant `json:"default,omitempty"`
}

// Decode strictly parses and validates a policy config. Every failure
// wraps errs.ErrBadPolicy.
func Decode(data []byte) (Config, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var c Config
	if err := dec.Decode(&c); err != nil {
		return Config{}, fmt.Errorf("admission: %w: %v", errs.ErrBadPolicy, err)
	}
	// Exactly one JSON value: trailing garbage is a config error, not
	// padding.
	if dec.More() {
		return Config{}, fmt.Errorf("admission: %w: trailing data after policy object", errs.ErrBadPolicy)
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// Validate checks the semantic constraints Decode enforces.
func (c *Config) Validate() error {
	if _, err := ParsePolicy(c.QueuePolicy); err != nil {
		return err
	}
	checkTenant := func(name string, t Tenant) error {
		if !finite(t.Rate) || t.Rate < 0 {
			return fmt.Errorf("admission: %w: tenant %q rate %v must be finite and >= 0", errs.ErrBadPolicy, name, t.Rate)
		}
		if !finite(t.Burst) || t.Burst < 0 {
			return fmt.Errorf("admission: %w: tenant %q burst %v must be finite and >= 0", errs.ErrBadPolicy, name, t.Burst)
		}
		if t.Class != "" {
			if _, ok := c.Classes[t.Class]; !ok {
				return fmt.Errorf("admission: %w: tenant %q names undeclared class %q", errs.ErrBadPolicy, name, t.Class)
			}
		}
		return nil
	}
	// Deterministic error selection: validate in sorted tenant order.
	names := make([]string, 0, len(c.Tenants))
	for name := range c.Tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if name == "" {
			return fmt.Errorf("admission: %w: empty tenant name", errs.ErrBadPolicy)
		}
		if err := checkTenant(name, c.Tenants[name]); err != nil {
			return err
		}
	}
	if c.Default != nil {
		if err := checkTenant("(default)", *c.Default); err != nil {
			return err
		}
	}
	return nil
}

// TenantContract resolves the contract for a tenant name: its explicit
// entry, else the default, else unlimited at priority 0.
func (c *Config) TenantContract(name string) Tenant {
	if t, ok := c.Tenants[name]; ok {
		return t
	}
	if c.Default != nil {
		return *c.Default
	}
	return Tenant{}
}

// PriorityOf resolves a tenant contract's class priority.
func (c *Config) PriorityOf(t Tenant) int {
	if t.Class == "" {
		return 0
	}
	return c.Classes[t.Class].Priority
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Bucket is a token bucket: capacity Burst, refilled at Rate tokens per
// second. Rate <= 0 disables limiting (Allow always succeeds). Safe for
// concurrent use.
type Bucket struct {
	mu     sync.Mutex
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
	now    func() time.Time
}

// NewBucket returns a full bucket. A nil now uses the wall clock; tests
// inject a fake clock.
func NewBucket(rate, burst float64, now func() time.Time) *Bucket {
	if now == nil {
		now = time.Now
	}
	if burst <= 0 {
		burst = math.Max(1, rate)
	}
	return &Bucket{rate: rate, burst: burst, tokens: burst, last: now(), now: now}
}

// Allow takes one token, reporting whether the admission is within the
// tenant's contract.
func (b *Bucket) Allow() bool {
	if b.rate <= 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	t := b.now()
	if dt := t.Sub(b.last).Seconds(); dt > 0 {
		b.tokens = math.Min(b.burst, b.tokens+dt*b.rate)
	}
	b.last = t
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// Item is one queued admission.
type Item struct {
	// Payload is the opaque job handle.
	Payload any
	// Priority orders under PriorityFCFS (higher first).
	Priority int
	// Phi orders under SJF (lower first): the predicted job cost.
	Phi float64
	// seq is the arrival tiebreak, assigned by Push.
	seq uint64
}

// Queue is a bounded, blocking priority queue over one of the Policy
// disciplines. Safe for concurrent use.
type Queue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	policy Policy
	cap    int
	h      itemHeap
	closed bool
	seq    uint64
}

// NewQueue returns an empty queue bounded at capacity items (minimum 1).
func NewQueue(policy Policy, capacity int) *Queue {
	if capacity < 1 {
		capacity = 1
	}
	q := &Queue{policy: policy, cap: capacity}
	q.cond = sync.NewCond(&q.mu)
	q.h.policy = policy
	return q
}

// Push enqueues the item, reporting false when the queue is full or
// closed (the caller sheds load or refuses the submit).
func (q *Queue) Push(it Item) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || len(q.h.items) >= q.cap {
		return false
	}
	q.seq++
	it.seq = q.seq
	heap.Push(&q.h, it)
	q.cond.Signal()
	return true
}

// Pop blocks until an item is available or the queue is closed and
// drained; ok is false only in the latter case.
func (q *Queue) Pop() (it Item, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.h.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.h.items) == 0 {
		return Item{}, false
	}
	return heap.Pop(&q.h).(Item), true
}

// TryPop dequeues without blocking; ok is false when the queue is empty.
func (q *Queue) TryPop() (it Item, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.h.items) == 0 {
		return Item{}, false
	}
	return heap.Pop(&q.h).(Item), true
}

// Len reports the number of queued items.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.h.items)
}

// Close wakes every blocked Pop once the queue drains; subsequent Push
// calls are refused.
func (q *Queue) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.cond.Broadcast()
}

// itemHeap orders items under the queue's policy with the arrival seq as
// the final tiebreak, so every discipline is a strict total order and
// dequeue order is deterministic for a given arrival order.
type itemHeap struct {
	policy Policy
	items  []Item
}

func (h *itemHeap) Len() int { return len(h.items) }

func (h *itemHeap) Less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	switch h.policy {
	case PriorityFCFS:
		if a.Priority != b.Priority {
			return a.Priority > b.Priority
		}
	case SJF:
		if a.Phi != b.Phi {
			return a.Phi < b.Phi
		}
	}
	return a.seq < b.seq
}

func (h *itemHeap) Swap(i, j int) { h.items[i], h.items[j] = h.items[j], h.items[i] }

func (h *itemHeap) Push(x any) { h.items = append(h.items, x.(Item)) }

func (h *itemHeap) Pop() any {
	old := h.items
	n := len(old)
	it := old[n-1]
	h.items = old[:n-1]
	return it
}
