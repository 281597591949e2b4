package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"decepticon/internal/core"
	"decepticon/internal/fingerprint"
	"decepticon/internal/obs"
	"decepticon/internal/service"
	"decepticon/internal/sidechannel"
	"decepticon/internal/zoo"
)

// identifier names the level-1 identification path a workload exercises.
type identifier int

const (
	identifyFlat  identifier = iota // the flat CNN over the kernel trace
	identifyFused                   // trace, power and counters fused
	identifyHier                    // the family→release hierarchy
)

// workload is one traffic mix over a fixed population.
type workload struct {
	identify identifier
	// resident keeps every model loaded for the whole run (the CLI
	// default); otherwise each victim reloads from the store.
	resident bool
	// faulted runs scheduled, majority-voted extraction over the faulted
	// channel.
	faulted bool
	// service drives the campaign server over loopback HTTP.
	service bool
}

var workloads = map[string]workload{
	"campaign":         {identify: identifyFlat, resident: true},
	"campaign_faulted": {identify: identifyFused, faulted: true},
	"service":          {identify: identifyHier, service: true},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// faultsSpec is the Makefile's FAULTS_SPEC with a per-campaign plan seed.
const faultsSpec = "seed=%d,transient=0.02,recovery=3,stuck=0.0005,outage=0.001,period=1500"

// campaignSize is K, the victims per campaign on every workload.
const campaignSize = 3

// populationConfig is the benchmark's own population, sized between the
// tiny and small scales: the tiny, mini and small architectures, including
// ambiguity cluster C so query probes run. Models train one at a time.
func populationConfig(quick bool) zoo.BuildConfig {
	cfg := zoo.SmallBuildConfig()
	cfg.NumPretrained = 6
	cfg.NumFineTuned = 12
	cfg.PretrainExamples = 80
	cfg.PretrainEpochs = 5
	cfg.FineTuneExamples = 80
	cfg.FineTuneEpochs = 4
	if quick {
		cfg.NumFineTuned = 6
		cfg.PretrainExamples, cfg.PretrainEpochs = 40, 2
		cfg.FineTuneExamples, cfg.FineTuneEpochs = 40, 2
	}
	cfg.Workers = 1
	return cfg
}

// prepareConfig trains the identifiers the workload's path needs, with
// one worker.
func (w workload) prepareConfig(quick bool, reg *obs.Registry) core.PrepareConfig {
	cfg := core.PrepareConfig{SamplesPerModel: 3, ImgSize: 32, Epochs: 20, Seed: 7, Workers: 1, Obs: reg}
	if quick {
		cfg.SamplesPerModel, cfg.Epochs = 2, 4
	}
	switch w.identify {
	case identifyFused:
		cfg.Modalities = []fingerprint.Modality{fingerprint.ModalityPower, fingerprint.ModalityCounters}
	case identifyHier:
		cfg.Hierarchical = true
	}
	return cfg
}

// runOptions are the options every victim of an in-process campaign runs
// with; the caller sets MeasureSeed. faults is the campaign's fault-plan
// seed (see faultSeed). The service workload's options are the server's
// own (see serviceOptions).
func (w workload) runOptions(faults uint64) (core.RunOptions, error) {
	opt := core.RunOptions{Workers: 1}
	if w.faulted {
		plan, err := sidechannel.ParseFaultPlan(fmt.Sprintf(faultsSpec, faults))
		if err != nil {
			return opt, err
		}
		opt.FaultPlan = plan
		opt.ScheduledExtraction = true
		opt.Modalities = fingerprint.AllModalities()
		opt.ReleaseModels = true
	}
	return opt, nil
}

// serviceOptions mirror what the campaign server runs each victim with
// (service.Server.execute), so a traced replay attacks the same way.
func serviceOptions(ckptDir string) core.RunOptions {
	return core.RunOptions{CheckpointDir: ckptDir, Resume: true, Workers: 1, ReleaseModels: true}
}

// setupTimes are the wall times of one set-up, in seconds.
type setupTimes struct {
	build, open, prepare, total float64
}

// env is one set-up: a fresh store, a prepared attack and, for the service
// workload, a campaign server listening on loopback.
type env struct {
	dir   string
	reg   *obs.Registry
	atk   *core.Attack
	times setupTimes

	srv  *service.Server
	hs   *http.Server
	addr string
	done chan error
}

// setup goes from an empty directory to a prepared attack: a cold store
// build, a reopen (every model becomes a lazy, store-backed handle),
// PrepareContext, then either loading every model (resident workloads) or
// dropping them so the measured phase starts with none loaded.
func setup(ctx context.Context, w workload, o options) (*env, error) {
	dir, err := os.MkdirTemp(o.workdir, "run-")
	if err != nil {
		return nil, err
	}
	e := &env{dir: dir, reg: obs.New(), done: make(chan error, 1)}
	if err := e.start(ctx, w, o); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *env) start(ctx context.Context, w workload, o options) error {
	t0 := time.Now()
	cfg := populationConfig(o.quick)
	cfg.Obs = e.reg
	store := filepath.Join(e.dir, "store")
	if _, st, err := zoo.BuildOrOpenStore(ctx, cfg, store, ""); err != nil {
		return err
	} else if st.Reused != 0 {
		return fmt.Errorf("store in a fresh directory reused %d models", st.Reused)
	}
	t1 := time.Now()
	z, st, err := zoo.BuildOrOpenStore(ctx, cfg, store, "")
	if err != nil {
		return err
	}
	if st.Trained() != 0 {
		return fmt.Errorf("reopening the store retrained %d models", st.Trained())
	}
	t2 := time.Now()
	atk, err := core.PrepareContext(ctx, z, w.prepareConfig(o.quick, e.reg))
	if err != nil {
		return err
	}
	if w.faulted {
		atk.ExtractCfg.ReadRepeats = 3
	}
	e.atk = atk
	t3 := time.Now()
	for _, p := range z.Pretrained {
		if w.resident {
			p.Model()
		} else {
			p.Release()
		}
	}
	for _, f := range z.FineTuned {
		if w.resident {
			f.Model()
		} else {
			f.Release()
		}
	}
	if w.service {
		if err := e.serve(); err != nil {
			return err
		}
	}
	end := time.Now()
	e.times = setupTimes{
		build:   t1.Sub(t0).Seconds(),
		open:    t2.Sub(t1).Seconds(),
		prepare: t3.Sub(t2).Seconds(),
		total:   end.Sub(t0).Seconds(),
	}
	return nil
}

// serve starts the campaign server (one runner, one victim worker) on a
// loopback port.
func (e *env) serve() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv, err := service.New(service.Config{
		Dir:           filepath.Join(e.dir, "service"),
		Attack:        e.atk,
		Obs:           e.reg,
		Runners:       1,
		VictimWorkers: 1,
	})
	if err != nil {
		ln.Close()
		return err
	}
	e.srv = srv
	e.addr = ln.Addr().String()
	e.hs = &http.Server{Handler: srv.Handler()}
	go func() { e.done <- e.hs.Serve(ln) }()
	return nil
}

// close stops the server (if any), waits for it, and removes the run's
// directory.
func (e *env) close() {
	if e.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := e.srv.Drain(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench: drain:", err)
		}
		if err := e.hs.Shutdown(ctx); err != nil {
			e.hs.Close()
		}
		cancel()
		if err := <-e.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "e2ebench: serve:", err)
		}
		e.srv = nil
	}
	os.RemoveAll(e.dir)
}
