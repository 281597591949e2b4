package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"decepticon/internal/core"
	"decepticon/internal/zoo"
)

var (
	prepOnce sync.Once
	testZ    *zoo.Zoo
	testAtk  *core.Attack
)

// getAttack prepares one shared tiny attack for every service test: the
// service itself is what is under test, so the smallest population that
// exercises real extractions keeps the suite fast.
func getAttack(t *testing.T) (*core.Attack, *zoo.Zoo) {
	t.Helper()
	prepOnce.Do(func() {
		testZ = zoo.MustBuild(zoo.TinyBuildConfig())
		atk, err := core.Prepare(testZ, core.PrepareConfig{
			SamplesPerModel: 2, ImgSize: 32, Epochs: 8,
		})
		if err != nil {
			panic(err)
		}
		testAtk = atk
	})
	return testAtk, testZ
}

// newServer builds a server over the shared attack; the default config
// suits most tests and overrides tweak it.
func newServer(t *testing.T, dir string, mut func(*Config)) *Server {
	t.Helper()
	atk, _ := getAttack(t)
	cfg := Config{Dir: dir, Attack: atk, QueueLimit: 4, Runners: 1}
	if mut != nil {
		mut(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func drain(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// waitState polls until the campaign reaches one of the wanted states.
func waitState(t *testing.T, s *Server, id string, states ...string) CampaignStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, ok := s.Campaign(id)
		if !ok {
			t.Fatalf("campaign %s unknown", id)
		}
		for _, want := range states {
			if st.State == want {
				return st
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s stuck in %s, wanted one of %v", id, st.State, states)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func victimNames(z *zoo.Zoo, n int) []string {
	names := make([]string, 0, n)
	for _, f := range z.FineTuned[:n] {
		names = append(names, f.Name)
	}
	return names
}

func readResults(t *testing.T, dir, id string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "campaigns", id, "results.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestSubmitValidation(t *testing.T) {
	s := newServer(t, t.TempDir(), nil)
	defer drain(t, s)
	var verr *ValidationError
	if _, err := s.Submit(CampaignSpec{}); !errors.As(err, &verr) {
		t.Fatalf("missing tenant: got %v, want ValidationError", err)
	}
	if _, err := s.Submit(CampaignSpec{Tenant: "a", Victims: []string{"nope"}}); !errors.As(err, &verr) {
		t.Fatalf("unknown victim: got %v, want ValidationError", err)
	}
	if _, err := s.Submit(CampaignSpec{Tenant: "a", Faults: "bogus-spec"}); !errors.As(err, &verr) {
		t.Fatalf("bad faults: got %v, want ValidationError", err)
	}
}

// A full queue must reject with ErrQueueFull while the running campaign
// is unaffected — the bounded-queue half of admission control.
func TestQueueFullRejects(t *testing.T) {
	_, z := getAttack(t)
	dir := t.TempDir()
	s := newServer(t, dir, func(c *Config) { c.QueueLimit = 1 })
	defer drain(t, s)

	all := victimNames(z, len(z.FineTuned))
	first, err := s.Submit(CampaignSpec{Tenant: "a", Victims: all})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the runner holds the first campaign so the queue is
	// empty and the accounting below is deterministic.
	waitState(t, s, first.ID, StateRunning, StateDone)
	if _, err := s.Submit(CampaignSpec{Tenant: "a", Victims: all[:1]}); err != nil {
		t.Fatalf("queued submission rejected: %v", err)
	}
	if _, err := s.Submit(CampaignSpec{Tenant: "a", Victims: all[:1]}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-limit submission: got %v, want ErrQueueFull", err)
	}
}

// The byte-identical resume contract, end to end through the service:
// a campaign interrupted by its tenant's budget must park resumable,
// and a restarted server with a raised budget must finish it with
// results and summary byte-identical to an uninterrupted control run.
func TestBudgetInterruptsThenResumesByteIdentical(t *testing.T) {
	// All four tiny victims with a budget below even one victim's spend:
	// the charge check trips at the first delivered extraction, while
	// later victims are still unclaimed, so the interruption cannot race
	// the campaign's natural completion (the overshoot is bounded by the
	// in-flight window, which at tiny scale can cover whole victims).
	_, z := getAttack(t)
	victims := victimNames(z, len(z.FineTuned))
	spec := CampaignSpec{Tenant: "bob", Victims: victims, MeasureSeed: 5}

	// Control: unlimited budget, uninterrupted.
	controlDir := t.TempDir()
	sc := newServer(t, controlDir, nil)
	control, err := sc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	controlSt := waitState(t, sc, control.ID, StateDone, StateFailed)
	if controlSt.State != StateDone {
		t.Fatalf("control campaign: %+v", controlSt)
	}
	drain(t, sc)
	controlBytes := readResults(t, controlDir, control.ID)
	spent := controlSt.Spent
	if spent <= 0 {
		t.Fatalf("control spent %d, want > 0", spent)
	}

	// Budgeted: the allowance covers roughly one of the two victims, so
	// the campaign must be interrupted by budget, not finish.
	dir := t.TempDir()
	s1 := newServer(t, dir, func(c *Config) {
		c.Tenants = map[string]TenantConfig{"bob": {ReadBudget: 1}}
	})
	st, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	got := waitState(t, s1, st.ID, StateInterrupted, StateDone, StateFailed)
	if got.State != StateInterrupted || got.Reason != ReasonBudget {
		t.Fatalf("budgeted campaign: state %s reason %q, want interrupted/budget", got.State, got.Reason)
	}
	if got.Delivered >= len(victims) {
		t.Fatalf("budget interrupt delivered all %d victims — budget did nothing", got.Delivered)
	}
	drain(t, s1)

	// Same dir, raised budget: recovery must re-queue and resume it.
	s2 := newServer(t, dir, func(c *Config) {
		c.Tenants = map[string]TenantConfig{"bob": {ReadBudget: 100 * spent}}
	})
	final := waitState(t, s2, st.ID, StateDone, StateFailed)
	if final.State != StateDone {
		t.Fatalf("resumed campaign: %+v", final)
	}
	drain(t, s2)

	if resumed := readResults(t, dir, st.ID); !bytes.Equal(resumed, controlBytes) {
		t.Fatalf("resumed results differ from control:\ncontrol:\n%s\nresumed:\n%s", controlBytes, resumed)
	}
	cj, _ := json.Marshal(controlSt.Summary)
	rj, _ := json.Marshal(final.Summary)
	if !bytes.Equal(cj, rj) {
		t.Fatalf("resumed summary differs from control:\n%s\n%s", cj, rj)
	}
	if final.Spent != spent {
		t.Fatalf("resumed spend %d, control %d — resume re-paid or dropped oracle attempts", final.Spent, spent)
	}
}

// Drain must leave a running campaign interrupted-but-resumable, and a
// restart on the same dir must finish it byte-identically to a control.
func TestDrainThenRestartResumes(t *testing.T) {
	_, z := getAttack(t)
	victims := victimNames(z, len(z.FineTuned))
	spec := CampaignSpec{Tenant: "a", Victims: victims, MeasureSeed: 9}

	controlDir := t.TempDir()
	sc := newServer(t, controlDir, nil)
	control, err := sc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	controlSt := waitState(t, sc, control.ID, StateDone, StateFailed)
	if controlSt.State != StateDone {
		t.Fatalf("control: %+v", controlSt)
	}
	drain(t, sc)
	controlBytes := readResults(t, controlDir, control.ID)

	dir := t.TempDir()
	s1 := newServer(t, dir, nil)
	st, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s1, st.ID, StateRunning, StateDone)
	drain(t, s1) // cancel mid-extraction; checkpoints land under the campaign dir
	mid, _ := s1.Campaign(st.ID)
	if mid.State == StateFailed {
		t.Fatalf("drained campaign failed: %+v", mid)
	}

	s2 := newServer(t, dir, nil)
	final := waitState(t, s2, st.ID, StateDone, StateFailed)
	drain(t, s2)
	if final.State != StateDone {
		t.Fatalf("recovered campaign: %+v", final)
	}
	if got := readResults(t, dir, st.ID); !bytes.Equal(got, controlBytes) {
		t.Fatalf("post-restart results differ from control")
	}
}

// The HTTP surface: submit → 202, stream follows a live campaign in
// order, queue-full → 429 with Retry-After, draining → 503.
func TestHTTPEndToEnd(t *testing.T) {
	_, z := getAttack(t)
	dir := t.TempDir()
	s := newServer(t, dir, func(c *Config) { c.QueueLimit = 1 })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	all := victimNames(z, len(z.FineTuned))
	body, _ := json.Marshal(CampaignSpec{Tenant: "web", Victims: all})
	resp, err := http.Post(ts.URL+"/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st CampaignStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || st.ID == "" {
		t.Fatalf("submit: %d %+v", resp.StatusCode, st)
	}

	// Stream while running: lines must arrive in index order and the
	// stream must end only when the campaign stops.
	rresp, err := http.Get(ts.URL + "/campaigns/" + st.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(rresp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	n := 0
	for sc.Scan() {
		var line VictimResult
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		if line.Index != n {
			t.Fatalf("stream out of order: index %d at position %d", line.Index, n)
		}
		n++
	}
	rresp.Body.Close()
	if n != len(all) {
		t.Fatalf("streamed %d lines, want %d", n, len(all))
	}
	final, _ := s.Campaign(st.ID)
	if final.State != StateDone {
		t.Fatalf("campaign after full stream: %+v", final)
	}

	// Fill the queue past its bound: each accepted campaign adds ~300ms
	// of runner backlog against microsecond POSTs, so within a few
	// submissions one must land while the queue is full and bounce with
	// 429 + Retry-After. (A fixed-count two-submission version flaked
	// when a loaded scheduler let the runner drain between POSTs.)
	saw429 := false
	for i := 0; i < 12 && !saw429; i++ {
		resp, err := http.Post(ts.URL+"/campaigns", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After")
			}
			saw429 = true
		} else if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: unexpected %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	if !saw429 {
		t.Fatal("never saw 429 with QueueLimit=1 and 3 extra submissions")
	}

	drain(t, s)
	resp, err = http.Post(ts.URL+"/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d, want 503", resp.StatusCode)
	}

	// Ops surface rides the same mux.
	for _, path := range []string{"/metrics", "/metrics.json", "/debug/vars", "/healthz", "/tenants", "/victims"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
	}
}

// Two runners attacking the same victims at once share the victims'
// models, so inference must write no model state: both campaigns finish,
// each with the results a one-runner server produces.
func TestConcurrentCampaignsShareVictims(t *testing.T) {
	_, z := getAttack(t)
	all := victimNames(z, len(z.FineTuned))
	specs := []CampaignSpec{
		{Tenant: "a", Victims: all, MeasureSeed: 1},
		{Tenant: "b", Victims: all[1:], MeasureSeed: 2},
	}
	run := func(runners int) [][]byte {
		dir := t.TempDir()
		s := newServer(t, dir, func(c *Config) { c.Runners = runners })
		defer drain(t, s)
		var ids []string
		for _, spec := range specs {
			st, err := s.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, st.ID)
		}
		var out [][]byte
		for _, id := range ids {
			if st := waitState(t, s, id, StateDone, StateFailed, StateInterrupted); st.State != StateDone {
				t.Fatalf("runners=%d campaign %s: %+v", runners, id, st)
			}
			out = append(out, readResults(t, dir, id))
		}
		return out
	}
	serial, concurrent := run(1), run(2)
	for i := range serial {
		if !bytes.Equal(serial[i], concurrent[i]) {
			t.Fatalf("campaign %d results differ between one and two runners", i)
		}
	}
}

// A finished campaign releases its progress tracker, and its /progress
// document is then exactly what a restarted server serves from disk.
func TestDoneCampaignReleasesTracker(t *testing.T) {
	_, z := getAttack(t)
	dir := t.TempDir()
	progress := func(s *Server, id string) []byte {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/campaigns/"+id+"/progress", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET progress: %d", rec.Code)
		}
		return rec.Body.Bytes()
	}
	s := newServer(t, dir, nil)
	st, err := s.Submit(CampaignSpec{Tenant: "a", Victims: victimNames(z, 2)})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, st.ID, StateDone)
	s.mu.Lock()
	c := s.campaigns[st.ID]
	s.mu.Unlock()
	c.mu.Lock()
	tracker := c.tracker
	c.mu.Unlock()
	if tracker != nil {
		t.Fatal("done campaign still holds its progress tracker")
	}
	live := progress(s, st.ID)
	drain(t, s)

	s2 := newServer(t, dir, nil)
	defer drain(t, s2)
	if restarted := progress(s2, st.ID); !bytes.Equal(live, restarted) {
		t.Fatalf("progress differs after restart:\nlive:      %s\nrestarted: %s", live, restarted)
	}
}
