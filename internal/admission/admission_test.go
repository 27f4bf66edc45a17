package admission

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"paradigm/internal/errs"
)

const goodConfig = `{
  "queue_policy": "priority-fcfs",
  "classes": {"gold": {"priority": 2}, "free": {"priority": 0}},
  "tenants": {
    "acme": {"class": "gold", "rate": 10, "burst": 20},
    "hobby": {"class": "free", "rate": 1}
  },
  "default": {"class": "free", "rate": 0.5, "burst": 1}
}`

func TestDecodeGood(t *testing.T) {
	c, err := Decode([]byte(goodConfig))
	if err != nil {
		t.Fatal(err)
	}
	if c.QueuePolicy != "priority-fcfs" {
		t.Fatalf("policy %q", c.QueuePolicy)
	}
	acme := c.TenantContract("acme")
	if acme.Rate != 10 || acme.Burst != 20 || c.PriorityOf(acme) != 2 {
		t.Fatalf("acme contract %+v priority %d", acme, c.PriorityOf(acme))
	}
	// Unlisted tenant falls to the default contract.
	other := c.TenantContract("someone")
	if other.Rate != 0.5 || c.PriorityOf(other) != 0 {
		t.Fatalf("default contract %+v", other)
	}
}

func TestDecodeRejects(t *testing.T) {
	cases := map[string]string{
		"malformed":        `{`,
		"unknown field":    `{"queue_policy": "fcfs", "bogus": 1}`,
		"unknown policy":   `{"queue_policy": "lifo"}`,
		"negative rate":    `{"tenants": {"a": {"rate": -1}}}`,
		"negative burst":   `{"tenants": {"a": {"burst": -2}}}`,
		"undeclared class": `{"tenants": {"a": {"class": "gold"}}}`,
		"bad default":      `{"default": {"rate": -3}}`,
		"empty tenant":     `{"tenants": {"": {"rate": 1}}}`,
		"trailing data":    `{"queue_policy": "fcfs"} {"queue_policy": "sjf"}`,
		"non-object":       `[1, 2]`,
	}
	for name, cfg := range cases {
		if _, err := Decode([]byte(cfg)); !errors.Is(err, errs.ErrBadPolicy) {
			t.Errorf("%s: error %v, want ErrBadPolicy", name, err)
		}
	}
	// Empty policy object is valid: unlimited FCFS.
	if _, err := Decode([]byte(`{}`)); err != nil {
		t.Errorf("empty object rejected: %v", err)
	}
}

func TestBucketRefill(t *testing.T) {
	clock := time.Unix(0, 0)
	now := func() time.Time { return clock }
	b := NewBucket(2, 2, now) // 2 jobs/s, burst 2

	if !b.Allow() || !b.Allow() {
		t.Fatal("burst capacity not honored")
	}
	if b.Allow() {
		t.Fatal("allowed past burst with no refill")
	}
	clock = clock.Add(500 * time.Millisecond) // +1 token
	if !b.Allow() {
		t.Fatal("refill not credited")
	}
	if b.Allow() {
		t.Fatal("over-credited refill")
	}
	clock = clock.Add(time.Hour) // refill clamps at burst
	if !b.Allow() || !b.Allow() {
		t.Fatal("clamped refill lost tokens")
	}
	if b.Allow() {
		t.Fatal("refill exceeded burst")
	}
}

func TestBucketUnlimited(t *testing.T) {
	b := NewBucket(0, 0, nil)
	for i := 0; i < 1000; i++ {
		if !b.Allow() {
			t.Fatal("unlimited bucket refused")
		}
	}
}

func TestQueuePolicies(t *testing.T) {
	pop := func(q *Queue, n int) []string {
		var out []string
		for i := 0; i < n; i++ {
			it, ok := q.TryPop()
			if !ok {
				t.Fatal("queue empty early")
			}
			out = append(out, it.Payload.(string))
		}
		return out
	}
	eq := func(got []string, want ...string) {
		t.Helper()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("order %v, want %v", got, want)
		}
	}

	q := NewQueue(FCFS, 8)
	q.Push(Item{Payload: "a", Priority: 9})
	q.Push(Item{Payload: "b", Priority: 0})
	q.Push(Item{Payload: "c", Priority: 5})
	eq(pop(q, 3), "a", "b", "c")

	q = NewQueue(PriorityFCFS, 8)
	q.Push(Item{Payload: "low1", Priority: 0})
	q.Push(Item{Payload: "high", Priority: 2})
	q.Push(Item{Payload: "low2", Priority: 0})
	eq(pop(q, 3), "high", "low1", "low2")

	q = NewQueue(SJF, 8)
	q.Push(Item{Payload: "slow", Phi: 9.5})
	q.Push(Item{Payload: "fast", Phi: 0.25})
	q.Push(Item{Payload: "mid", Phi: 3})
	q.Push(Item{Payload: "tie", Phi: 0.25})
	eq(pop(q, 4), "fast", "tie", "mid", "slow")
}

func TestQueueBoundAndClose(t *testing.T) {
	q := NewQueue(FCFS, 2)
	if !q.Push(Item{Payload: 1}) || !q.Push(Item{Payload: 2}) {
		t.Fatal("push within capacity refused")
	}
	if q.Push(Item{Payload: 3}) {
		t.Fatal("push past capacity accepted")
	}
	q.Close()
	if q.Push(Item{Payload: 4}) {
		t.Fatal("push accepted after Close")
	}
	// Close drains: queued items still pop, then ok=false.
	for i := 1; i <= 2; i++ {
		it, ok := q.Pop()
		if !ok || it.Payload.(int) != i {
			t.Fatalf("drain pop %d: %v %v", i, it.Payload, ok)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop after drain reported ok")
	}
}

func TestQueueBlockingPop(t *testing.T) {
	q := NewQueue(FCFS, 4)
	got := make(chan int, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		it, ok := q.Pop()
		if !ok {
			t.Error("blocked pop failed")
			got <- -1
			return
		}
		got <- it.Payload.(int)
	}()
	time.Sleep(10 * time.Millisecond)
	q.Push(Item{Payload: 42})
	if v := <-got; v != 42 {
		t.Fatalf("got %d", v)
	}
	wg.Wait()

	// Close releases blocked workers.
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, ok := q.Pop(); ok {
			t.Error("pop after close-empty reported ok")
		}
	}()
	time.Sleep(10 * time.Millisecond)
	q.Close()
	<-done
}
