// Package jobstore is the scheduling service's durable job journal: an
// append-only record of every accepted submit and every job status
// transition, committed to disk before it is acknowledged, so a SIGKILL
// of the service loses no accepted job.
//
// The journal reuses internal/ckpt's write-ahead log verbatim — the same
// magic/version header, the same committed-length/CRC commit pointer
// published in place after each append, the same torn-tail truncation on
// reopen — so its durability and integrity model is exactly the WAL's:
// a record either committed completely or is invisible, and any damage
// inside the committed region is refused loudly. On top of the byte
// layer this package adds two record kinds (a "submit" and a "state"
// transition, both strict JSON), a total Decode over arbitrary bytes
// (the FuzzJobJournalDecode target), and a Replay that folds the record
// stream into per-job end states for restart recovery.
//
// Every structural or semantic defect — ckpt-level corruption, an
// undecodable or invalid payload, a transition for a job never
// submitted, a transition out of a terminal state — wraps
// errs.ErrJobJournalCorrupt: the service refuses to boot over a damaged
// journal rather than silently dropping or inventing accepted jobs.
package jobstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"paradigm/internal/ckpt"
	"paradigm/internal/errs"
	"paradigm/internal/obs"
)

// FileName is the journal's conventional file name inside the service's
// checkpoint directory, next to the per-job "job-<id>.wal" files.
const FileName = "jobs.journal"

// Record kinds (the ckpt stage names the journal commits under).
const (
	recSubmit = "submit"
	recState  = "state"
)

// Job statuses a state record may carry. Queued and Running are open;
// Done and Failed are terminal — no transition may leave them.
const (
	StatusQueued  = "queued"
	StatusRunning = "running"
	StatusDone    = "done"
	StatusFailed  = "failed"
)

// Submit is the accepted-job record: the full request, journaled before
// the 202 acknowledgement. A journaled submit with no terminal state is
// re-enqueued on restart.
type Submit struct {
	ID        string `json:"id"`
	Program   string `json:"program"`
	Size      int    `json:"size"`
	Procs     int    `json:"procs"`
	Recover   int    `json:"recover,omitempty"`
	Retries   int    `json:"retries,omitempty"`
	FaultSeed uint64 `json:"fault_seed,omitempty"`
	// Tenant and Class scope the job under the multi-tenant admission
	// policy; both empty on journals written before tenancy existed, so
	// old journals decode unchanged.
	Tenant string `json:"tenant,omitempty"`
	Class  string `json:"class,omitempty"`
}

// State is one status transition. Done records carry the result digest
// and headline numbers; Failed records carry the error.
type State struct {
	ID     string  `json:"id"`
	Status string  `json:"status"`
	Error  string  `json:"error,omitempty"`
	Phi    float64 `json:"phi,omitempty"`
	Actual float64 `json:"actual,omitempty"`
	Digest string  `json:"digest,omitempty"`
}

// Event is one decoded journal record: exactly one of Submit or State is
// non-nil.
type Event struct {
	Submit *Submit
	State  *State
}

// JobState is one job's folded end state after Replay: the original
// submit plus the latest journaled status.
type JobState struct {
	Submit
	Status string
	Error  string
	Phi    float64
	Actual float64
	Digest string
}

// Terminal reports whether the job reached done or failed.
func (s JobState) Terminal() bool {
	return s.Status == StatusDone || s.Status == StatusFailed
}

// corrupt wraps a journal defect over both the package sentinel and the
// underlying cause.
func corrupt(format string, args ...any) error {
	return fmt.Errorf("jobstore: %w: %s", errs.ErrJobJournalCorrupt, fmt.Sprintf(format, args...))
}

// ValidateSubmit checks a request's fields: a program, a positive size
// and system size, and non-negative recovery and retry budgets. The
// service's submit handler and the journal, on append and on replay,
// both check a submit with it; the job id is the journal's own check.
func ValidateSubmit(s Submit) error {
	switch {
	case s.Program == "":
		return errors.New("program is required")
	case s.Size <= 0 || s.Procs <= 0:
		return fmt.Errorf("size and procs must be positive, got size=%d procs=%d", s.Size, s.Procs)
	case s.Recover < 0 || s.Retries < 0:
		return fmt.Errorf("recover and retries must be non-negative, got recover=%d retries=%d", s.Recover, s.Retries)
	}
	return nil
}

func validateSubmit(s Submit) error {
	if s.ID == "" {
		return errors.New("submit with empty job id")
	}
	if err := ValidateSubmit(s); err != nil {
		return fmt.Errorf("submit %s: %w", s.ID, err)
	}
	return nil
}

func validateState(s State) error {
	if s.ID == "" {
		return fmt.Errorf("state with empty job id")
	}
	switch s.Status {
	case StatusQueued, StatusRunning, StatusDone, StatusFailed:
		return nil
	}
	return fmt.Errorf("state for job %s with unknown status %q", s.ID, s.Status)
}

// Journal is an open job journal. Unlike a per-run checkpoint, a journal
// is shared by every service worker, so appends are serialized by an
// internal mutex.
type Journal struct {
	mu       sync.Mutex
	log      *ckpt.Log
	observer obs.Observer
	// lag counts jobs journaled as accepted whose terminal state has not
	// been journaled yet — the restart backlog the health endpoint
	// reports as journal lag.
	lag int
}

// Open opens (or creates) the journal at path and folds the committed
// records into per-job states for restart recovery. A structurally
// damaged journal, or one whose record stream is semantically invalid,
// is refused with errs.ErrJobJournalCorrupt — torn uncommitted tails are
// not damage and are truncated to the commit pointer exactly as
// internal/ckpt does. The observer (may be nil) receives one
// obs.JournalAppend per subsequent durable append.
func Open(path string, observer obs.Observer) (*Journal, []JobState, error) {
	l, err := ckpt.Open(path)
	if err != nil {
		if errors.Is(err, ckpt.ErrCorrupt) || errors.Is(err, ckpt.ErrVersion) {
			return nil, nil, fmt.Errorf("%w (%v)", corrupt("open %s", path), err)
		}
		// An IO failure (missing directory, permissions) is not damage.
		return nil, nil, fmt.Errorf("jobstore: open %s: %w", path, err)
	}
	events, err := fold(l.Records())
	if err != nil {
		return nil, nil, fmt.Errorf("%w (in %s)", err, path)
	}
	states, err := Replay(events)
	if err != nil {
		return nil, nil, fmt.Errorf("%w (in %s)", err, path)
	}
	j := &Journal{log: l, observer: observer}
	for _, st := range states {
		if !st.Terminal() {
			j.lag++
		}
	}
	return j, states, nil
}

// AppendSubmit journals an accepted job. It returns only after the
// record is committed: the caller may acknowledge the submit the moment
// this returns.
func (j *Journal) AppendSubmit(s Submit) error {
	if err := validateSubmit(s); err != nil {
		return fmt.Errorf("jobstore: refusing to journal invalid %v", err)
	}
	return j.append(recSubmit, s.ID, s, func() { j.lag++ })
}

// AppendState journals one status transition, committed before the
// transition is visible anywhere else.
func (j *Journal) AppendState(s State) error {
	if err := validateState(s); err != nil {
		return fmt.Errorf("jobstore: refusing to journal invalid %v", err)
	}
	onCommit := func() {}
	if s.Status == StatusDone || s.Status == StatusFailed {
		onCommit = func() {
			if j.lag > 0 {
				j.lag--
			}
		}
	}
	return j.append(recState, s.Status, s, onCommit)
}

func (j *Journal) append(kind, label string, v any, onCommit func()) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("jobstore: encode %s: %w", kind, err)
	}
	j.mu.Lock()
	err = j.log.Commit(kind, payload)
	if err == nil {
		onCommit()
	}
	j.mu.Unlock()
	if err != nil {
		return fmt.Errorf("jobstore: %w", err)
	}
	if j.observer != nil {
		record := label
		if kind == recSubmit {
			record = recSubmit
		}
		j.observer.Observe(obs.JournalAppend{Record: record, Bytes: len(payload)})
	}
	return nil
}

// Lag returns the number of journaled jobs with no terminal state yet.
func (j *Journal) Lag() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.lag
}

// Len returns the number of committed journal records.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.Len()
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.log.Path() }

// Close releases the journal's write handle; a later append reopens it.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.Close()
}

// Decode parses a raw journal image into its event stream. It is total
// over arbitrary bytes — the FuzzJobJournalDecode target — and strict:
// the ckpt layer validates structure and CRCs, and every payload must
// decode to a valid submit or state record. All failures wrap
// errs.ErrJobJournalCorrupt.
func Decode(data []byte) ([]Event, error) {
	records, err := ckpt.Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%w (%v)", corrupt("undecodable image"), err)
	}
	return fold(records)
}

// fold converts validated ckpt records into typed journal events.
func fold(records []ckpt.Record) ([]Event, error) {
	events := make([]Event, 0, len(records))
	for _, r := range records {
		switch r.Stage {
		case recSubmit:
			var s Submit
			if err := json.Unmarshal(r.Payload, &s); err != nil {
				return nil, corrupt("record %d: submit: %v", r.Seq, err)
			}
			if err := validateSubmit(s); err != nil {
				return nil, corrupt("record %d: %v", r.Seq, err)
			}
			events = append(events, Event{Submit: &s})
		case recState:
			var s State
			if err := json.Unmarshal(r.Payload, &s); err != nil {
				return nil, corrupt("record %d: state: %v", r.Seq, err)
			}
			if err := validateState(s); err != nil {
				return nil, corrupt("record %d: %v", r.Seq, err)
			}
			events = append(events, Event{State: &s})
		default:
			return nil, corrupt("record %d: unknown record kind %q", r.Seq, r.Stage)
		}
	}
	return events, nil
}

// Replay folds an event stream into per-job end states, in submit
// order. The stream must be causally consistent: one submit per job id,
// every transition names a submitted job, and no transition leaves a
// terminal state — violations mean the journal was not written by the
// service's append discipline and wrap errs.ErrJobJournalCorrupt.
func Replay(events []Event) ([]JobState, error) {
	byID := map[string]*JobState{}
	var order []string
	for i, e := range events {
		switch {
		case e.Submit != nil:
			if _, dup := byID[e.Submit.ID]; dup {
				return nil, corrupt("event %d: duplicate submit for job %s", i, e.Submit.ID)
			}
			byID[e.Submit.ID] = &JobState{Submit: *e.Submit, Status: StatusQueued}
			order = append(order, e.Submit.ID)
		case e.State != nil:
			st, ok := byID[e.State.ID]
			if !ok {
				return nil, corrupt("event %d: transition for unsubmitted job %s", i, e.State.ID)
			}
			if st.Terminal() {
				return nil, corrupt("event %d: job %s transitions %s -> %s out of a terminal state",
					i, e.State.ID, st.Status, e.State.Status)
			}
			st.Status = e.State.Status
			st.Error = e.State.Error
			st.Phi = e.State.Phi
			st.Actual = e.State.Actual
			st.Digest = e.State.Digest
		default:
			return nil, corrupt("event %d: empty event", i)
		}
	}
	out := make([]JobState, 0, len(order))
	for _, id := range order {
		out = append(out, *byID[id])
	}
	return out, nil
}
