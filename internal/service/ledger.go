package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"decepticon/internal/fsatomic"
)

// The campaign event ledger: <dir>/events.ndjson, one Event per line,
// append-only. Unlike results.ndjson — which each (re)start truncates
// and redelivers bit-for-bit — the ledger is the campaign's history and
// is NEVER truncated: restarts scan it, drop a torn final line (a crash
// mid-append), and keep appending with the sequence numbers continuing
// where the scan ended. Seq is strictly monotonic within a campaign and
// the event kinds walk a fixed state machine (ValidateLedger), so the
// file doubles as a machine-checkable audit trail of every admission,
// interruption, and resume the campaign lived through.

// Ledger event kinds, in rough lifecycle order.
const (
	EventQueued          = "queued"
	EventStarted         = "started"
	EventTensorComplete  = "tensor-complete"
	EventVictimDelivered = "victim-delivered"
	EventDegraded        = "degraded"
	EventInterrupted     = "interrupted"
	EventResumed         = "resumed"
	EventDone            = "done"
	EventFailed          = "failed"
)

// Event is one ledger line. Seq and the sim-unit fields (Completed,
// Planned) are deterministic; Time is wall clock and explicitly outside
// the determinism contract — comparisons strip it.
type Event struct {
	Seq int64 `json:"seq"`
	// Time is the append wall time (RFC3339Nano). Operational context
	// only; excluded from determinism checks like every Timer.
	Time string `json:"time,omitempty"`
	// Event is the kind (one of the Event* constants).
	Event string `json:"event"`
	// Victim names the victim a tensor-complete / victim-delivered /
	// degraded event belongs to.
	Victim string `json:"victim,omitempty"`
	// Tensor is the boundary that fired a tensor-complete ("restored"
	// when a resume re-credits checkpointed work in one jump).
	Tensor string `json:"tensor,omitempty"`
	// Completed/Planned carry the victim's cumulative simulated units at
	// a tensor-complete boundary.
	Completed int64 `json:"completed,omitempty"`
	Planned   int64 `json:"planned,omitempty"`
	// Reason annotates interrupted (shutdown/budget), degraded, and
	// failed events.
	Reason string `json:"reason,omitempty"`
}

// ledger is the append handle of one campaign's events.ndjson.
type ledger struct {
	mu   sync.Mutex
	f    *os.File
	seq  int64
	size int64 // bytes of whole lines on disk (readers never see a torn tail)
}

// openLedger opens (creating if absent) a campaign's ledger for append
// through fsatomic.OpenAppend: a record is a line, so the whole records
// run through the last newline, and a torn final line — a crash
// mid-append — is truncated away so the file holds only whole events.
// The last full line fixes the next sequence number.
func openLedger(path string) (*ledger, error) {
	f, data, err := fsatomic.OpenAppend(path, func(data []byte) (int, error) {
		return bytes.LastIndexByte(data, '\n') + 1, nil
	})
	if err != nil {
		return nil, fmt.Errorf("service: open ledger: %w", err)
	}
	var seq int64
	for _, line := range bytes.Split(data, []byte{'\n'}) {
		if len(line) == 0 {
			continue
		}
		var ev Event
		if json.Unmarshal(line, &ev) == nil && ev.Seq > seq {
			seq = ev.Seq
		}
	}
	return &ledger{f: f, seq: seq, size: int64(len(data))}, nil
}

// append stamps the event with the next sequence number and the current
// wall time, writes it as one line, and returns the bytes now visible.
func (l *ledger) append(ev Event) (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	ev.Seq = l.seq
	ev.Time = time.Now().UTC().Format(time.RFC3339Nano)
	line, err := json.Marshal(&ev)
	if err != nil {
		return l.size, err
	}
	if _, err := l.f.Write(append(line, '\n')); err != nil {
		return l.size, err
	}
	l.size += int64(len(line)) + 1
	return l.size, nil
}

// bytes returns how many whole-line bytes the ledger holds.
func (l *ledger) bytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

func (l *ledger) close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}

// ReadLedgerFile parses a campaign's events.ndjson. A torn final line
// (crash mid-append) is skipped, matching what openLedger would truncate.
func ReadLedgerFile(path string) ([]Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readLedger(f)
}

func readLedger(r io.Reader) ([]Event, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if i := bytes.LastIndexByte(data, '\n'); i >= 0 {
		data = data[:i+1]
	} else {
		data = nil
	}
	var events []Event
	for ln, line := range bytes.Split(data, []byte{'\n'}) {
		if len(line) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, fmt.Errorf("ledger line %d: %w", ln+1, err)
		}
		events = append(events, ev)
	}
	return events, nil
}

// runningSet is the set of kinds a live campaign emits between start and
// its next pause or terminal.
var runningSet = map[string]bool{
	EventStarted:         true,
	EventResumed:         true,
	EventTensorComplete:  true,
	EventVictimDelivered: true,
	EventDegraded:        true,
}

// ValidateLedger checks a campaign ledger's invariants:
//
//   - Seq strictly increases (no duplicates, no regressions);
//   - the first event is "queued" and every transition is legal:
//     queued → started | interrupted | failed; any running-set event
//     (started, resumed, tensor-complete, victim-delivered, degraded) →
//     running-set | interrupted | done | failed; interrupted → resumed,
//     or started when the campaign was parked before it ever ran;
//   - "done" and "failed" are terminal and appear at most once;
//   - tensor-complete unit counters never regress per victim.
func ValidateLedger(events []Event) error {
	if len(events) == 0 {
		return fmt.Errorf("ledger is empty")
	}
	var lastSeq int64
	prev := ""
	started := false
	unitFloor := map[string]int64{}
	for i, ev := range events {
		if ev.Seq <= lastSeq {
			return fmt.Errorf("event %d (%s): seq %d not after %d", i, ev.Event, ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		legal := false
		switch {
		case prev == "":
			legal = ev.Event == EventQueued
		case prev == EventQueued:
			legal = ev.Event == EventStarted || ev.Event == EventInterrupted || ev.Event == EventFailed
		case runningSet[prev]:
			legal = (runningSet[ev.Event] && ev.Event != EventStarted) ||
				ev.Event == EventInterrupted || ev.Event == EventDone || ev.Event == EventFailed
		case prev == EventInterrupted:
			// A resume continues; "started" is the parked-before-first-run
			// case (queued → interrupted by budget → eventually started).
			legal = ev.Event == EventResumed || (ev.Event == EventStarted && !started)
		}
		if !legal {
			return fmt.Errorf("event %d: illegal transition %q → %q", i, prev, ev.Event)
		}
		if ev.Event == EventStarted {
			started = true
		}
		if ev.Event == EventTensorComplete {
			if ev.Completed < unitFloor[ev.Victim] {
				return fmt.Errorf("event %d: victim %q completed units regressed %d → %d",
					i, ev.Victim, unitFloor[ev.Victim], ev.Completed)
			}
			unitFloor[ev.Victim] = ev.Completed
		}
		prev = ev.Event
	}
	return nil
}
