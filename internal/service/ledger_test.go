package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
)

func TestLedgerSeqContinuesAndTornTailTruncates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.ndjson")
	l, err := openLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{EventQueued, EventStarted} {
		if _, err := l.append(Event{Event: kind}); err != nil {
			t.Fatal(err)
		}
	}
	l.close()

	// Simulate a crash mid-append: a torn final line with no newline.
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	f.WriteString(`{"seq":3,"event":"tensor-`)
	f.Close()

	l2, err := openLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l2.append(Event{Event: EventInterrupted, Reason: ReasonShutdown}); err != nil {
		t.Fatal(err)
	}
	l2.close()

	events, err := ReadLedgerFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3 (torn tail dropped): %+v", len(events), events)
	}
	// The reopened ledger continues the sequence from the last whole line.
	if events[2].Seq != 3 || events[2].Event != EventInterrupted {
		t.Fatalf("post-recovery event = %+v, want seq 3 interrupted", events[2])
	}
	if err := ValidateLedger(events); err != nil {
		t.Fatal(err)
	}
}

func TestValidateLedgerRejectsIllegalHistories(t *testing.T) {
	ev := func(seq int64, kind string) Event { return Event{Seq: seq, Event: kind} }
	cases := []struct {
		name   string
		events []Event
	}{
		{"empty", nil},
		{"starts unqueued", []Event{ev(1, EventStarted)}},
		{"seq regresses", []Event{ev(1, EventQueued), ev(1, EventStarted)}},
		{"done then more", []Event{ev(1, EventQueued), ev(2, EventStarted), ev(3, EventDone), ev(4, EventResumed)}},
		{"double done", []Event{ev(1, EventQueued), ev(2, EventStarted), ev(3, EventDone), ev(4, EventDone)}},
		{"resume without interrupt", []Event{ev(1, EventQueued), ev(2, EventResumed)}},
		{"restart mid-run", []Event{ev(1, EventQueued), ev(2, EventStarted), ev(3, EventStarted)}},
		{"units regress", []Event{ev(1, EventQueued), ev(2, EventStarted),
			{Seq: 3, Event: EventTensorComplete, Victim: "v", Completed: 10},
			{Seq: 4, Event: EventTensorComplete, Victim: "v", Completed: 4}}},
	}
	for _, tc := range cases {
		if err := ValidateLedger(tc.events); err == nil {
			t.Fatalf("%s: validated, want error", tc.name)
		}
	}
	legal := []Event{
		ev(1, EventQueued), ev(2, EventStarted),
		{Seq: 3, Event: EventTensorComplete, Victim: "v", Completed: 4, Planned: 10},
		ev(4, EventInterrupted), ev(5, EventResumed),
		{Seq: 6, Event: EventTensorComplete, Victim: "v", Completed: 10, Planned: 10},
		ev(7, EventVictimDelivered), ev(8, EventDone),
	}
	if err := ValidateLedger(legal); err != nil {
		t.Fatalf("legal history rejected: %v", err)
	}
}

// readLedgerDir loads and validates a campaign's ledger from disk.
func readLedgerDir(t *testing.T, dir, id string) []Event {
	t.Helper()
	events, err := ReadLedgerFile(filepath.Join(dir, "campaigns", id, "events.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateLedger(events); err != nil {
		t.Fatalf("ledger invalid: %v\nevents: %+v", err, events)
	}
	return events
}

func kinds(events []Event) map[string]int {
	m := map[string]int{}
	for _, ev := range events {
		m[ev.Event]++
	}
	return m
}

// TestTelemetryKillResumeAndWorkerInvariance is the tentpole's service
// acceptance: a campaign killed mid-extraction and restarted yields one
// valid ledger (monotonic seq, legal transitions, interrupted→resumed),
// its progress never regresses and ends at exactly 1.0, and the
// deterministic progress fields are byte-identical to an uninterrupted
// 1-worker control AND to a 4-worker run.
func TestTelemetryKillResumeAndWorkerInvariance(t *testing.T) {
	_, z := getAttack(t)
	victims := victimNames(z, len(z.FineTuned))
	spec := CampaignSpec{Tenant: "ops", Victims: victims, MeasureSeed: 3}

	finalProgress := func(dir string, workers int, interrupt bool) (CampaignStatus, []Event) {
		sp := spec
		sp.Workers = workers
		s1 := newServer(t, dir, nil)
		st, err := s1.Submit(sp)
		if err != nil {
			t.Fatal(err)
		}
		if interrupt {
			waitState(t, s1, st.ID, StateRunning, StateDone)
			drain(t, s1) // the in-process stand-in for a daemon kill
			s2 := newServer(t, dir, nil)
			final := waitState(t, s2, st.ID, StateDone, StateFailed)
			drain(t, s2)
			if final.State != StateDone {
				t.Fatalf("resumed campaign: %+v", final)
			}
			return final, readLedgerDir(t, dir, st.ID)
		}
		final := waitState(t, s1, st.ID, StateDone, StateFailed)
		drain(t, s1)
		if final.State != StateDone {
			t.Fatalf("campaign: %+v", final)
		}
		return final, readLedgerDir(t, dir, st.ID)
	}

	control, controlLedger := finalProgress(t.TempDir(), 1, false)
	if control.Progress == nil || control.Progress.Fraction != 1.0 {
		t.Fatalf("control progress = %+v, want fraction exactly 1.0", control.Progress)
	}
	if control.Progress.PlannedUnits == 0 ||
		control.Progress.CompletedUnits != control.Progress.PlannedUnits {
		t.Fatalf("control units = %d/%d, want equal and nonzero",
			control.Progress.CompletedUnits, control.Progress.PlannedUnits)
	}
	if control.Progress.VictimsDone != len(victims) {
		t.Fatalf("control victims done = %d, want %d", control.Progress.VictimsDone, len(victims))
	}
	ck := kinds(controlLedger)
	if ck[EventQueued] != 1 || ck[EventStarted] != 1 || ck[EventDone] != 1 ||
		ck[EventVictimDelivered] != len(victims) || ck[EventTensorComplete] == 0 {
		t.Fatalf("control ledger kinds = %v", ck)
	}
	// Timestamps persist through the lifecycle (satellite: the old code
	// kept admission time in memory only).
	if control.SubmittedAt == nil || control.StartedAt == nil || control.FinishedAt == nil {
		t.Fatalf("missing lifecycle timestamps: %+v", control)
	}
	if control.StartedAt.Before(*control.SubmittedAt) || control.FinishedAt.Before(*control.StartedAt) {
		t.Fatalf("timestamps out of order: %v / %v / %v",
			control.SubmittedAt, control.StartedAt, control.FinishedAt)
	}
	controlJSON, _ := json.Marshal(control.Progress)

	// Kill mid-run, restart, finish: one ledger spanning both processes.
	resumed, resumedLedger := finalProgress(t.TempDir(), 1, true)
	rk := kinds(resumedLedger)
	if rk[EventInterrupted] == 0 || rk[EventResumed] == 0 {
		t.Fatalf("resumed ledger never interrupted/resumed: %v", rk)
	}
	if rk[EventDone] != 1 {
		t.Fatalf("resumed ledger done count = %d, want 1", rk[EventDone])
	}
	resumedJSON, _ := json.Marshal(resumed.Progress)
	if !bytes.Equal(resumedJSON, controlJSON) {
		t.Fatalf("kill/resume progress differs from control:\ncontrol: %s\nresumed: %s",
			controlJSON, resumedJSON)
	}

	// Worker invariance: 4 victim workers, same deterministic snapshot.
	wide, _ := finalProgress(t.TempDir(), 4, false)
	wideJSON, _ := json.Marshal(wide.Progress)
	if !bytes.Equal(wideJSON, controlJSON) {
		t.Fatalf("4-worker progress differs from control:\ncontrol: %s\n4w: %s",
			controlJSON, wideJSON)
	}
}

// TestProgressAndEventsEndpoints drives the two new HTTP surfaces: the
// progress document and the follow-mode NDJSON event stream.
func TestProgressAndEventsEndpoints(t *testing.T) {
	_, z := getAttack(t)
	dir := t.TempDir()
	s := newServer(t, dir, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(CampaignSpec{Tenant: "web", Victims: victimNames(z, 2)})
	resp, err := http.Post(ts.URL+"/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st CampaignStatus
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()

	// Follow the event stream while the campaign runs: lines arrive with
	// strictly increasing seq and the stream closes at the terminal event.
	eresp, err := http.Get(ts.URL + "/campaigns/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	var events []Event
	sc := bufio.NewScanner(eresp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		events = append(events, ev)
	}
	eresp.Body.Close()
	if err := ValidateLedger(events); err != nil {
		t.Fatalf("streamed ledger invalid: %v", err)
	}
	if last := events[len(events)-1].Event; last != EventDone {
		t.Fatalf("stream ended on %q, want done", last)
	}

	var pr ProgressResponse
	presp, err := http.Get(ts.URL + "/campaigns/" + st.ID + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(presp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if pr.ID != st.ID || pr.State != StateDone {
		t.Fatalf("progress response = %+v", pr)
	}
	if pr.Progress == nil || pr.Progress.Fraction != 1.0 || len(pr.Progress.Victims) != 2 {
		t.Fatalf("progress payload = %+v, want fraction 1.0 over 2 victims", pr.Progress)
	}

	if resp, err := http.Get(ts.URL + "/campaigns/nope/progress"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown campaign progress: %v %v", resp.StatusCode, err)
	}
	drain(t, s)
}

// openFDs counts this process's open file descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	return len(ents)
}

// Finished campaigns must not pin file descriptors: each campaign's
// ledger closes after its terminal event, and reading a finished
// campaign's events — live or after a restart — opens no write handle.
func TestFinishedCampaignsReleaseLedgers(t *testing.T) {
	if _, err := os.Stat("/proc/self/fd"); err != nil {
		t.Skip("no /proc/self/fd on this platform")
	}
	_, z := getAttack(t)
	dir := t.TempDir()
	readEvents := func(s *Server, id string) []Event {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/campaigns/"+id+"/events", nil))
		events, err := readLedger(rec.Body)
		if err != nil {
			t.Fatal(err)
		}
		if err := ValidateLedger(events); err != nil {
			t.Fatalf("campaign %s ledger: %v", id, err)
		}
		return events
	}

	s := newServer(t, dir, nil)
	var ids []string
	run := func() {
		st, err := s.Submit(CampaignSpec{Tenant: "fd", Victims: victimNames(z, 1)})
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, s, st.ID, StateDone)
		readEvents(s, st.ID)
		ids = append(ids, st.ID)
	}
	run() // warm-up: lazily created process-wide descriptors settle here
	before := openFDs(t)
	const n = 3
	for i := 0; i < n; i++ {
		run()
	}
	if after := openFDs(t); after != before {
		t.Fatalf("%d finished campaigns moved the open descriptor count %d -> %d", n, before, after)
	}
	drain(t, s)

	// A restarted server reading finished campaigns' ledgers only reads.
	s2 := newServer(t, dir, nil)
	defer drain(t, s2)
	before = openFDs(t)
	for _, id := range ids {
		if events := readEvents(s2, id); events[len(events)-1].Event != EventDone {
			t.Fatalf("campaign %s ledger ends on %q, want done", id, events[len(events)-1].Event)
		}
	}
	if after := openFDs(t); after != before {
		t.Fatalf("reading %d finished ledgers moved the open descriptor count %d -> %d", len(ids), before, after)
	}
}
