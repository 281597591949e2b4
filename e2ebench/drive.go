package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"decepticon/internal/core"
	"decepticon/internal/obs"
	"decepticon/internal/pipeline"
	"decepticon/internal/rng"
	"decepticon/internal/service"
	"decepticon/internal/sidechannel"
	"decepticon/internal/zoo"
)

// tally accumulates one measured phase's outcomes and timings.
type tally struct {
	wall time.Duration

	attempted, failed int
	victims           int
	identified        int
	extracted         int
	matchSum          float64
	phys, attempts    int64
	queries           int64
	heapLiveMB        float64

	// Campaign latencies, keyed by the campaign's group and by its
	// leading victim (see repeats).
	campaigns   repeats // start to last result, ms
	firstResult repeats // start to first result, ms
	ncampaigns  int

	// One sample per campaign, except gaps (one per result after a
	// campaign's first).
	submit       []float64 // submit call, ms
	queueWait    []float64 // submit to first victim started, ms
	gaps         []float64 // between consecutive results, ms
	ledgerEvents int
	writeBytes   int64
	fdGrowth     int
	heapGrowthKB float64
	problems     []string

	// ref holds the reference samples taken after each campaign (see
	// hostref.go).
	ref []time.Duration
}

// fail records a failed operation and keeps the first few reasons for the
// log.
func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.problems) < 10 {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// repeats holds latency samples keyed by the request they time. Every
// rotation of passes repeats each campaign, and each leading victim, the
// same number of times, so the keys are the run's distinct requests.
type repeats map[string][]float64

func (r repeats) add(key string, v float64) { r[key] = append(r[key], v) }

// p50 is the median over distinct requests of each request's mean over
// its repeats. Taking the median of the pooled samples instead lands on
// the boundary between two requests' clusters, where one outlier moves it;
// and with five or so repeats a request's mean is steadier than its
// median (seven service runs: 8% against 13% interquartile range over
// median for first_result_p50_ms).
func (r repeats) p50() float64 {
	var means []float64
	for _, xs := range r {
		means = append(means, mean(xs))
	}
	return median(means)
}

// victimsPerS is the phase's victims per second of attack time (its wall
// time less the reference samples), scaled to the nominal host.
func (t *tally) victimsPerS() float64 {
	attack := t.wall
	for _, s := range t.ref {
		attack -= s
	}
	return ratio(float64(t.victims), attack.Seconds()) * hostScale(t.ref)
}

// endToEnd returns the end-to-end metrics the phase yields (setup_s is
// added by the caller). Host-clock figures are scaled to the nominal host.
func (t *tally) endToEnd() map[string]metric {
	v := float64(t.victims)
	h := hostScale(t.ref)
	return map[string]metric{
		"victims_per_s":              {t.victimsPerS(), "1/s"},
		"campaign_p50_ms":            {t.campaigns.p50() / h, "ms"},
		"first_result_p50_ms":        {t.firstResult.p50() / h, "ms"},
		"heap_live_mb":               {t.heapLiveMB, "MB"},
		"identify_rate":              {ratio(float64(t.identified), v), "fraction"},
		"clone_match_rate":           {ratio(t.matchSum, float64(t.extracted)), "fraction"},
		"phys_reads_per_victim":      {ratio(float64(t.phys), v), "reads"},
		"oracle_attempts_per_victim": {ratio(float64(t.attempts), v), "attempts"},
		"queries_per_victim":         {ratio(float64(t.queries), v), "queries"},
		"success_rate":               {1 - ratio(float64(t.failed), float64(t.attempted)), "fraction"},
	}
}

// result wraps metrics with the phase's correctness verdict and logs the
// first failures to stderr.
func (t *tally) result(m map[string]metric) *result {
	for _, p := range t.problems {
		fmt.Fprintln(os.Stderr, "e2ebench: check failed:", p)
	}
	return &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}
}

// runner drives one workload over one set-up.
type runner struct {
	e      *env
	w      workload
	o      options
	tr     *tracer     // nil when untraced
	lt     *layerTally // per-layer figures of the traced phase
	client *http.Client
	// pass counts the passes over the population so far; each round of
	// a rotation has its own victim order and measurement seeds.
	pass int
	// replays counts traced replays, naming their scratch directories.
	replays int
}

func newRunner(e *env, w workload, o options) *runner {
	return &runner{e: e, w: w, o: o, client: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 4},
	}}
}

// campaigns returns the campaigns of a pass in the given round of its
// rotation (see runPass). The population is split into fixed groups of
// campaignSize victims in zoo order. The seed shuffles the order the
// groups are visited in, and each group is rotated by the seed plus the
// round, so every campaign always holds the same victims and, over a
// rotation, every victim leads a campaign exactly once.
func (r *runner) campaigns(round int) []campaign {
	all := r.e.atk.Zoo.FineTuned
	var out []campaign
	for i := 0; i < len(all); i += campaignSize {
		out = append(out, campaign{group: len(out), victims: all[i:min(i+campaignSize, len(all))]})
	}
	rnd := rand.New(rand.NewPCG(r.o.seed, uint64(round)))
	rnd.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	rot := int(r.o.seed%campaignSize) + round
	for i, c := range out {
		vs := make([]*zoo.FineTuned, len(c.victims))
		for j := range vs {
			vs[j] = c.victims[(j+rot)%len(vs)]
		}
		out[i].victims = vs
	}
	return out
}

// campaign is one campaign of a pass: a fixed group of victims, in the
// order the pass attacks them.
type campaign struct {
	group   int
	victims []*zoo.FineTuned
}

// faultSeed is the fault-plan seed of a group's campaign in a round. It
// depends on the round and the group but not on the workload seed, so
// every run pays for the same fault realizations: drawn from the workload
// seed, one heavy-tailed realization per victim made
// phys_reads_per_victim spread by 13% between seeds.
func faultSeed(round, group int) uint64 {
	return rng.Seed("e2ebench-faults", fmt.Sprint(round), fmt.Sprint(group)) >> 16
}

// campaignSeed is the measurement seed of campaign i of a round; victim j
// of the campaign is measured with campaignSeed + j*7919, as RunAllStream
// assigns it.
func campaignSeed(seed uint64, round, i int) uint64 {
	return rng.Seed("e2ebench", fmt.Sprint(seed), fmt.Sprint(round), fmt.Sprint(i)) >> 16
}

// counters snapshots the registry counters the output checks reconcile.
type counters struct{ phys, faults, queries int64 }

func (r *runner) counters() counters {
	reg := r.e.reg
	return counters{
		phys:    reg.Counter("sidechannel.bit_reads_physical").Value(),
		faults:  reg.Counter("sidechannel.read_faults").Value(),
		queries: reg.Counter("core.victim_queries").Value(),
	}
}

// measure runs whole passes over the population until seconds have
// elapsed and the passes complete a rotation (see campaigns), then
// collects the heap and resource figures.
func (r *runner) measure(ctx context.Context, seconds float64) (*tally, error) {
	t := &tally{campaigns: repeats{}, firstResult: repeats{}}
	heap0 := liveHeapKB()
	fd0, w0 := openFDs(), wchar()
	c0 := r.counters()
	start := time.Now()
	for passes := 1; ; passes++ {
		if err := r.runPass(ctx, t); err != nil {
			return nil, err
		}
		r.pass++
		if time.Since(start).Seconds() >= seconds && passes%campaignSize == 0 {
			break
		}
	}
	t.wall = time.Since(start)
	t.queries = r.counters().queries - c0.queries
	t.writeBytes = wchar() - w0
	heap1 := liveHeapKB()
	t.heapLiveMB = heap1 / 1000
	t.fdGrowth = openFDs() - fd0
	t.heapGrowthKB = heap1 - heap0
	return t, nil
}

// runPass runs one pass: each campaign in turn, the next submitted once
// the previous one has delivered its last result. A pass is one round of
// a rotation of campaignSize passes, and every rotation repeats the same
// campaigns with the same seeds. A measured phase ends on a rotation
// boundary, so its simulated counts per victim do not depend on how many
// rotations the host's speed allowed: with a new seed per pass, runs of
// 15 and 18 passes spread phys_reads_per_victim on campaign_faulted by
// 1.2% (ten seeds, interquartile range over median).
func (r *runner) runPass(ctx context.Context, t *tally) error {
	round := r.pass % campaignSize
	for i, c := range r.campaigns(round) {
		victims := c.victims
		seed := campaignSeed(r.o.seed, round, i)
		faults := faultSeed(round, c.group)
		var err error
		switch {
		case r.w.service:
			var lines []service.VictimResult
			lines, err = r.serviceCampaign(ctx, t, c, seed)
			if err == nil && r.tr != nil {
				err = r.traceServiceCampaign(ctx, t, victims, seed, lines)
			}
		case r.tr != nil:
			err = r.traceCampaign(ctx, t, victims, seed, faults)
		default:
			err = r.inprocCampaign(ctx, t, c, seed, faults)
		}
		if err != nil {
			return err
		}
		t.ref = append(t.ref, refSample())
	}
	return nil
}

// liveHeapKB is HeapAlloc after a full collection, in kB.
func liveHeapKB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1000
}

// checkReport applies the per-victim output checks and folds the report
// into the tally.
func (r *runner) checkReport(t *tally, v *zoo.FineTuned, rep *core.Report) {
	t.attempted++
	t.victims++
	if rep.CorrectIdentity {
		t.identified++
	}
	switch {
	case rep.Victim != v.Name:
		t.fail("report for %s delivered in %s's slot", rep.Victim, v.Name)
	case r.e.atk.Zoo.PretrainedByName(rep.Identified) == nil:
		t.fail("%s identified as unknown release %q", v.Name, rep.Identified)
	case rep.ExtractError != "":
		t.fail("%s: extraction failed: %s", v.Name, rep.ExtractError)
	case rep.ExtractInterrupted:
		t.fail("%s: extraction interrupted", v.Name)
	}
	if rep.Extract != nil {
		t.extracted++
		t.matchSum += rep.MatchRate
		t.phys += rep.Extract.PhysicalBitReads
		t.attempts += rep.Extract.OracleAttempts()
	}
}

// inprocCampaign runs one in-process campaign through RunAllStream. The
// pipeline-clock factory, called as each victim starts, timestamps the
// first start without changing what the attack computes.
func (r *runner) inprocCampaign(ctx context.Context, t *tally, c campaign, seed, faults uint64) error {
	victims := c.victims
	opt, err := r.w.runOptions(faults)
	if err != nil {
		return err
	}
	opt.MeasureSeed = seed
	var firstStart atomic.Int64
	c0 := r.counters()
	start := time.Now()
	opt.Clock = func() pipeline.Clock {
		firstStart.CompareAndSwap(0, max(1, time.Since(start).Nanoseconds()))
		return &pipeline.SimClock{}
	}
	rs := r.e.atk.RunAllStream(ctx, victims, opt)
	t.submit = append(t.submit, ms(time.Since(start)))
	last := start
	var phys, attempts int64
	n := 0
	for {
		rep, ok := rs.Next()
		if !ok {
			break
		}
		now := time.Now()
		if n == 0 {
			t.firstResult.add(victims[0].Name, ms(now.Sub(start)))
		} else {
			t.gaps = append(t.gaps, ms(now.Sub(last)))
		}
		last = now
		if n < len(victims) {
			r.checkReport(t, victims[n], rep)
		}
		if rep.Extract != nil {
			phys += rep.Extract.PhysicalBitReads
			attempts += rep.Extract.OracleAttempts()
		}
		n++
	}
	t.campaigns.add(fmt.Sprint(c.group), ms(time.Since(start)))
	t.ncampaigns++
	t.queueWait = append(t.queueWait, float64(firstStart.Load())/1e6)
	t.attempted++
	sum := rs.Campaign()
	c1 := r.counters()
	switch {
	case rs.Err() != nil:
		t.fail("campaign seed %d: %v", seed, rs.Err())
	case n != len(victims) || sum.Victims != n:
		t.fail("campaign seed %d: %d reports for %d victims", seed, n, len(victims))
	case sum.TotalPhysicalReads != phys || c1.phys-c0.phys != phys:
		t.fail("campaign seed %d: physical reads do not reconcile: reports %d, campaign %d, registry %d",
			seed, phys, sum.TotalPhysicalReads, c1.phys-c0.phys)
	case sum.TotalOracleAttempts != attempts || c1.faults-c0.faults != attempts-phys:
		t.fail("campaign seed %d: oracle attempts do not reconcile: reports %d, campaign %d, registry faults %d",
			seed, attempts, sum.TotalOracleAttempts, c1.faults-c0.faults)
	}
	return nil
}

// followed is what the /events follower saw.
type followed struct {
	started time.Time
	events  []service.Event
	err     error
}

// serviceCampaign submits one campaign, follows its /events and /results
// streams to the end, and checks the results, the summary and the ledger.
// It returns the parsed result lines.
func (r *runner) serviceCampaign(ctx context.Context, t *tally, c campaign, seed uint64) ([]service.VictimResult, error) {
	batch := c.victims
	names := make([]string, len(batch))
	for i, v := range batch {
		names[i] = v.Name
	}
	spec, err := json.Marshal(service.CampaignSpec{Tenant: "bench", Victims: names, MeasureSeed: seed, Workers: 1})
	if err != nil {
		return nil, err
	}
	base := "http://" + r.e.addr
	c0 := r.counters()
	start := time.Now()
	resp, err := r.client.Post(base+"/campaigns", "application/json", bytes.NewReader(spec))
	if err != nil {
		return nil, err
	}
	var st service.CampaignStatus
	derr := json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	submitted := time.Now()
	if resp.StatusCode != http.StatusAccepted || derr != nil {
		return nil, fmt.Errorf("submit: HTTP %d (%v)", resp.StatusCode, derr)
	}
	t.submit = append(t.submit, ms(submitted.Sub(start)))

	evc := make(chan followed, 1)
	go func() { evc <- r.followEvents(ctx, base+"/campaigns/"+st.ID+"/events") }()

	t.attempted++
	lines, first, rerr := r.followResults(ctx, base+"/campaigns/"+st.ID+"/results", t)
	end := time.Now()
	ev := <-evc
	if rerr != nil {
		t.fail("campaign %s: results stream: %v", st.ID, rerr)
	}
	if ev.err != nil {
		t.fail("campaign %s: events stream: %v", st.ID, ev.err)
	}
	t.campaigns.add(fmt.Sprint(c.group), ms(end.Sub(start)))
	t.ncampaigns++
	if !first.IsZero() {
		t.firstResult.add(batch[0].Name, ms(first.Sub(start)))
	}
	if !ev.started.IsZero() {
		t.queueWait = append(t.queueWait, ms(ev.started.Sub(start)))
	}
	t.ledgerEvents += len(ev.events)

	var fin service.CampaignStatus
	if err := r.getJSON(ctx, base+"/campaigns/"+st.ID, &fin); err != nil {
		return nil, err
	}
	c1 := r.counters()
	var phys int64
	for i, line := range lines {
		v := batch[min(i, len(batch)-1)]
		rep := &core.Report{
			Victim: line.Victim, TruePretrained: line.TruePretrained, Identified: line.Identified,
			CorrectIdentity: line.Correct, ExtractError: line.ExtractError, ExtractInterrupted: line.Interrupted,
			MatchRate: line.MatchRate,
		}
		r.checkReport(t, v, rep)
		if line.Index != i {
			t.fail("campaign %s: line %d has index %d", st.ID, i, line.Index)
		}
		if line.HammerRounds != line.PhysicalReads*sidechannel.HammerRoundsPerBit {
			t.fail("campaign %s: %s hammer rounds %d for %d physical reads", st.ID, line.Victim, line.HammerRounds, line.PhysicalReads)
		}
		if line.CloneHash != "" {
			t.extracted++
			t.matchSum += line.MatchRate
		}
		t.phys += line.PhysicalReads
		t.attempts += line.OracleAttempts
		phys += line.PhysicalReads
	}
	switch {
	case len(lines) != len(batch):
		t.fail("campaign %s: %d result lines for %d victims", st.ID, len(lines), len(batch))
	case fin.State != service.StateDone:
		t.fail("campaign %s ended %s (%s)", st.ID, fin.State, fin.Error)
	case fin.Summary == nil || *fin.Summary != summarize(lines, fin.Summary.MeanReduction):
		t.fail("campaign %s: summary %+v does not match its result lines", st.ID, fin.Summary)
	case c1.phys-c0.phys != phys:
		t.fail("campaign %s: registry counted %d physical reads, results %d", st.ID, c1.phys-c0.phys, phys)
	}
	if err := service.ValidateLedger(ev.events); err != nil {
		t.fail("campaign %s: ledger: %v", st.ID, err)
	}
	return lines, nil
}

// summarize aggregates result lines the way the server aggregates
// reports (core's campaign aggregate), for comparison with the campaign's
// persisted Summary. Result lines do not carry the reduction factor, so
// the caller supplies MeanReduction.
func summarize(lines []service.VictimResult, meanReduction float64) service.Summary {
	s := service.Summary{MeanReduction: meanReduction}
	var match, cov float64
	extracted := 0
	for _, l := range lines {
		s.Victims++
		if l.Correct {
			s.Identified++
		}
		if l.ProbeQueries > 0 && l.Correct {
			s.ProbeResolved++
		}
		if l.ArchConfirmed {
			s.ArchConfirmed++
		}
		if l.ExtractError != "" {
			s.ExtractFailed++
		}
		if l.ExtractSkipped != "" {
			s.ExtractSkipped++
		}
		if l.Interrupted {
			s.ExtractInterrupted++
		}
		if l.CloneHash != "" {
			extracted++
			match += l.MatchRate
			cov += l.Coverage
			s.TotalBitsRead += l.LogicalBits
			s.TotalPhysicalReads += l.PhysicalReads
			s.TotalOracleAttempts += l.OracleAttempts
		}
	}
	if extracted > 0 {
		s.MeanMatchRate = match / float64(extracted)
		s.MeanCoverage = cov / float64(extracted)
	}
	s.TotalHammerRounds = s.TotalPhysicalReads * sidechannel.HammerRoundsPerBit
	return s
}

// followResults reads a campaign's /results stream to its end, recording
// the arrival of the first line and the gaps between lines.
func (r *runner) followResults(ctx context.Context, url string, t *tally) (lines []service.VictimResult, first time.Time, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, first, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, first, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	var last time.Time
	for sc.Scan() {
		now := time.Now()
		if first.IsZero() {
			first = now
		} else {
			t.gaps = append(t.gaps, ms(now.Sub(last)))
		}
		last = now
		var vr service.VictimResult
		if err := json.Unmarshal(sc.Bytes(), &vr); err != nil {
			t.fail("result line %d does not parse: %v", len(lines), err)
			continue
		}
		lines = append(lines, vr)
	}
	return lines, first, sc.Err()
}

// followEvents reads a campaign's /events stream to its end, noting when
// the "started" line arrived.
func (r *runner) followEvents(ctx context.Context, url string) (f followed) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		f.err = err
		return f
	}
	resp, err := r.client.Do(req)
	if err != nil {
		f.err = err
		return f
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var ev service.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			f.err = fmt.Errorf("ledger line %d: %w", len(f.events)+1, err)
			return f
		}
		if ev.Event == service.EventStarted && f.started.IsZero() {
			f.started = time.Now()
		}
		f.events = append(f.events, ev)
	}
	f.err = sc.Err()
	return f
}

func (r *runner) getJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// registryTimer returns a program timer's accumulated seconds.
func registryTimer(reg *obs.Registry, name string) float64 {
	return reg.Timer(name).Total().Seconds()
}
