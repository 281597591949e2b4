package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"decepticon/internal/fsatomic"
	"decepticon/internal/obs"
	"decepticon/internal/sidechannel"
)

// campaign is the in-memory handle of one durable campaign directory:
//
//	<dir>/spec.json       the submitted CampaignSpec, immutable
//	<dir>/status.json     CampaignStatus, atomically rewritten on change
//	<dir>/ckpt/           per-victim extraction checkpoints + flight dumps
//	<dir>/results.ndjson  one VictimResult line per victim, input order
//
// results.ndjson is rewritten from line zero on every (re)start of the
// campaign: redelivered reports reproduce the prefix bit-for-bit (the
// pipeline is deterministic and resume restores exact Stats), so the
// final file of an interrupted-then-resumed campaign is byte-identical
// to an uninterrupted control run's.
type campaign struct {
	srv  *Server
	dir  string
	spec CampaignSpec

	mu         sync.Mutex
	st         CampaignStatus
	resultsLen int64         // bytes of results.ndjson visible to readers
	eventsLen  int64         // bytes of events.ndjson visible to readers
	change     chan struct{} // closed and replaced on every mutation
	enqueued   time.Time     // when it last joined the queue (for wait hist)
	tracker    *obs.ProgressTracker
	lastProg   time.Time // last throttled progress persist

	ledMu     sync.Mutex // guards led and ledClosed, never taken under c.mu
	led       *ledger
	ledClosed bool // the ledger is final: no handle is (re)opened
}

func newCampaign(s *Server, dir string, spec CampaignSpec, st CampaignStatus) *campaign {
	enq := time.Now()
	if st.SubmittedAt != nil {
		// Queue-wait accounting survives restarts: the admission time is
		// the persisted one, not this process's start.
		enq = *st.SubmittedAt
	}
	return &campaign{
		srv:      s,
		dir:      dir,
		spec:     spec,
		st:       st,
		change:   make(chan struct{}),
		enqueued: enq,
	}
}

// loadCampaign restores a campaign handle from its directory.
func loadCampaign(s *Server, dir string) (*campaign, error) {
	var spec CampaignSpec
	if err := readJSON(filepath.Join(dir, "spec.json"), &spec); err != nil {
		return nil, err
	}
	var st CampaignStatus
	if err := readJSON(filepath.Join(dir, "status.json"), &st); err != nil {
		return nil, err
	}
	c := newCampaign(s, dir, spec, st)
	if st.Terminal() {
		// A finished campaign's results file is complete and immutable;
		// expose it as-is. Non-terminal campaigns re-expose their results
		// only as the resumed run redelivers them, so readers never see a
		// file the next execute is about to truncate.
		if fi, err := os.Stat(c.resultsPath()); err == nil {
			c.resultsLen = fi.Size()
		}
	}
	return c, nil
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func (c *campaign) resultsPath() string { return filepath.Join(c.dir, "results.ndjson") }
func (c *campaign) eventsPath() string  { return filepath.Join(c.dir, "events.ndjson") }

// ledger returns the campaign's event ledger, opening it on first use
// (recovery truncates a torn tail and continues the sequence). A
// finished campaign never appends again, so once its ledger is final
// ledger returns nil and opens nothing; a campaign recovered finished
// only has the ledger's readable length measured.
func (c *campaign) ledger() (*ledger, error) {
	c.ledMu.Lock()
	defer c.ledMu.Unlock()
	if c.led == nil && !c.ledClosed {
		c.mu.Lock()
		terminal := c.st.Terminal()
		c.mu.Unlock()
		if terminal {
			c.ledClosed = true
			return nil, c.measureEvents()
		}
		led, err := openLedger(c.eventsPath())
		if err != nil {
			return nil, err
		}
		c.led = led
		c.mu.Lock()
		if led.bytes() > c.eventsLen {
			c.eventsLen = led.bytes()
		}
		c.mu.Unlock()
	}
	return c.led, nil
}

// measureEvents sets the readable length of a finished campaign's
// ledger — its whole lines — without opening it for writing. ledMu held.
func (c *campaign) measureEvents() error {
	data, err := os.ReadFile(c.eventsPath())
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("service: read ledger: %w", err)
	}
	c.mu.Lock()
	c.eventsLen = int64(bytes.LastIndexByte(data, '\n') + 1)
	c.mu.Unlock()
	return nil
}

// closeLedger releases the append handle after the campaign's terminal
// event; later readers and ledger calls never reopen it.
func (c *campaign) closeLedger() {
	c.ledMu.Lock()
	defer c.ledMu.Unlock()
	c.ledClosed = true
	if c.led == nil {
		return
	}
	if err := c.led.close(); err != nil {
		c.srv.reg.Log().Error("service: close ledger", "campaign", c.st.ID, "err", err)
	}
	c.led = nil
}

// event appends one ledger line and wakes watchers. Ledger errors are
// logged, never fatal: the campaign keeps running with a gap in its
// audit trail rather than dying over telemetry. Never called with c.mu
// held (the ledger's lock orders before the campaign's).
func (c *campaign) event(ev Event) {
	led, err := c.ledger()
	if err != nil {
		c.srv.reg.Log().Error("service: open ledger", "campaign", c.st.ID, "err", err)
		return
	}
	if led == nil {
		c.srv.reg.Log().Error("service: event after the ledger closed", "campaign", c.st.ID, "event", ev.Event)
		return
	}
	size, err := led.append(ev)
	if err != nil {
		c.srv.reg.Log().Error("service: append ledger", "campaign", c.st.ID, "err", err)
		return
	}
	c.srv.counter("service.ledger_events").Inc()
	c.mu.Lock()
	c.eventsLen = size
	c.bump()
	c.mu.Unlock()
}

// persistNew creates the campaign directory and writes spec + status.
// Called once at submission, before the id is announced.
func (c *campaign) persistNew() error {
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return fmt.Errorf("service: create campaign dir: %w", err)
	}
	spec, err := json.Marshal(c.spec)
	if err != nil {
		return fmt.Errorf("service: marshal spec: %w", err)
	}
	if err := fsatomic.WriteFile(filepath.Join(c.dir, "spec.json"), append(spec, '\n')); err != nil {
		return fmt.Errorf("service: persist spec: %w", err)
	}
	c.persistStatus()
	return nil
}

// persistStatus atomically rewrites status.json from c.st. Callers hold
// c.mu (or have exclusive access during construction/recovery). Errors
// are logged, not fatal: the in-memory state stays authoritative for
// this process and the next restart re-derives what it can.
func (c *campaign) persistStatus() {
	data, err := json.Marshal(&c.st)
	if err == nil {
		err = fsatomic.WriteFile(filepath.Join(c.dir, "status.json"), append(data, '\n'))
	}
	if err != nil {
		c.srv.reg.Log().Error("service: persist status", "campaign", c.st.ID, "err", err)
	}
}

// bump wakes every watcher. c.mu held.
func (c *campaign) bump() {
	close(c.change)
	c.change = make(chan struct{})
}

// watch returns a channel closed at the campaign's next mutation.
func (c *campaign) watch() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.change
}

// snapshot returns a copy of the status (Summary and Progress shared,
// but both are replaced wholesale, never mutated in place). When a live
// tracker is attached, Progress and the wall-clock ETA refresh from it —
// between tensor boundaries the persisted copy would lag.
func (c *campaign) snapshot() CampaignStatus {
	c.mu.Lock()
	st := c.st
	tr := c.tracker
	c.mu.Unlock()
	if tr != nil {
		pv := tr.Snapshot()
		st.Progress = campaignProgress(pv)
		st.ETASeconds = pv.ETASeconds
	}
	return st
}

// progress returns what a results reader needs: bytes available, and
// whether the campaign can still produce more in this process.
func (c *campaign) progress() (avail int64, active bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resultsLen, c.st.State == StateQueued || c.st.State == StateRunning
}

// eventsProgress is the ledger-stream twin of progress: whole-line bytes
// available in events.ndjson, and whether this process can still append.
// The ledger is opened on demand so a reader attached to a recovered
// campaign sees its full (tail-truncated) history immediately; a
// finished campaign's is only measured, never opened for writing.
func (c *campaign) eventsProgress() (avail int64, active bool) {
	if _, err := c.ledger(); err != nil {
		c.srv.reg.Log().Error("service: open ledger", "campaign", c.st.ID, "err", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.eventsLen, c.st.State == StateQueued || c.st.State == StateRunning
}

// setTracker attaches the execution's progress tracker (snapshot reads
// it live from then on).
func (c *campaign) setTracker(tr *obs.ProgressTracker) {
	c.mu.Lock()
	c.tracker = tr
	c.mu.Unlock()
}

// observeProgress folds a fresh tracker snapshot into the status.
// Persisting every tensor boundary would hammer status.json, so disk
// writes are throttled to one per 200ms unless forced; the in-memory
// status (what /progress serves) always updates, and watchers wake.
func (c *campaign) observeProgress(pv obs.ProgressValue, force bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.st.Progress = campaignProgress(pv)
	if now := time.Now(); force || now.Sub(c.lastProg) >= 200*time.Millisecond {
		c.lastProg = now
		c.persistStatus()
	}
	c.bump()
}

// setRunning transitions queued → running and returns how long the
// campaign waited in the queue. The ledger gets "started" on the first
// run ever and "resumed" on every later one — StartedAt persists, so
// the distinction survives daemon restarts.
func (c *campaign) setRunning() time.Duration {
	c.mu.Lock()
	wait := time.Since(c.enqueued)
	first := c.st.StartedAt == nil
	if first {
		now := time.Now().UTC()
		c.st.StartedAt = &now
	}
	c.st.State = StateRunning
	c.st.Reason = ""
	c.st.Error = ""
	// The run redelivers from victim zero (resume makes redelivery cheap
	// and exact); expose results only as they rematerialize.
	c.st.Delivered = 0
	c.resultsLen = 0
	c.persistStatus()
	c.bump()
	c.mu.Unlock()
	if first {
		c.event(Event{Event: EventStarted})
	} else {
		c.event(Event{Event: EventResumed})
	}
	return wait
}

// park marks a queued campaign interrupted without running it (tenant
// budget exhausted before it reached a runner).
func (c *campaign) park(reason string) {
	c.event(Event{Event: EventInterrupted, Reason: reason})
	c.mu.Lock()
	defer c.mu.Unlock()
	c.st.State = StateInterrupted
	c.st.Reason = reason
	c.persistStatus()
	c.bump()
}

// finish records a terminal or interrupted state, stamping FinishedAt on
// the terminal ones (an interrupted campaign is still in flight). The
// matching ledger event is appended first so an events follower that
// wakes on the state change finds the line already on disk; a terminal
// event is the ledger's last, so its handle closes after it.
func (c *campaign) finish(state, reason, errMsg string, sum *Summary) {
	terminal := state == StateDone || state == StateFailed
	switch state {
	case StateDone:
		c.event(Event{Event: EventDone})
	case StateFailed:
		c.event(Event{Event: EventFailed, Reason: errMsg})
	case StateInterrupted:
		c.event(Event{Event: EventInterrupted, Reason: reason})
	}
	c.mu.Lock()
	c.st.State = state
	c.st.Reason = reason
	c.st.Error = errMsg
	// The execution is over: drop its tracker, which pins every victim's
	// progress item. Readers get the status from here on; a run that
	// reaches the end of its stream persists its final progress first.
	c.tracker = nil
	if sum != nil {
		c.st.Summary = sum
	}
	if terminal {
		now := time.Now().UTC()
		c.st.FinishedAt = &now
	}
	c.persistStatus()
	c.bump()
	c.mu.Unlock()
	if terminal {
		c.closeLedger()
	}
}

// resultSink is the append path of results.ndjson for one execution.
type resultSink struct {
	f  *os.File
	bw *bufio.Writer
}

// openResults truncates and reopens the results file for a fresh
// delivery sequence.
func (c *campaign) openResults() (*resultSink, error) {
	f, err := os.Create(c.resultsPath())
	if err != nil {
		return nil, fmt.Errorf("open results: %w", err)
	}
	return &resultSink{f: f, bw: bufio.NewWriter(f)}, nil
}

func (k *resultSink) Close() error {
	k.bw.Flush()
	return k.f.Close()
}

// deliver appends one result line, publishes it to readers, ratchets the
// campaign's metered spend to cum (monotonic: a resumed run's recount
// climbs through the old value, never below it), and returns the spend
// delta to charge against the tenant.
func (c *campaign) deliver(sink *resultSink, line []byte, cum int64) (delta int64, err error) {
	if _, err := sink.bw.Write(line); err != nil {
		return 0, err
	}
	if err := sink.bw.WriteByte('\n'); err != nil {
		return 0, err
	}
	// Flush before publishing: readers follow the file on disk, so the
	// visible length must never run ahead of the written bytes.
	if err := sink.bw.Flush(); err != nil {
		return 0, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.resultsLen += int64(len(line)) + 1
	c.st.Delivered++
	if cum > c.st.Spent {
		delta = cum - c.st.Spent
		c.st.Spent = cum
	}
	c.persistStatus()
	c.bump()
	return delta, nil
}

// parseFaults wraps sidechannel.ParseFaultPlan ("" → nil plan).
func parseFaults(spec string) (*sidechannel.FaultPlan, error) {
	return sidechannel.ParseFaultPlan(spec)
}
