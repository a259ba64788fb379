package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/bounded"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/engine"
	"repro/internal/insight"
	"repro/internal/pca"
	"repro/internal/protocols/dynchannel"
	"repro/internal/protocols/ledger"
	"repro/internal/psioa"
	"repro/internal/resilience"
	"repro/internal/sched"
)

// idLen is the length of every identifier the benchmark draws. Identifier
// text ends up in state and action names, so a fixed length keeps the work
// of every op identical.
const idLen = 8

// idGen draws fresh identifiers from the seed. Every op builds a system
// named by identifiers the process has never seen, so process-global memos
// cannot make later ops cheaper than earlier ones.
type idGen struct {
	rng  *rand.Rand
	seen map[string]bool
}

func newIDGen(seed uint64) *idGen {
	return &idGen{rng: rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15)), seen: map[string]bool{}}
}

func (g *idGen) next() string {
	for {
		b := make([]byte, idLen)
		for i := range b {
			b[i] = byte('a' + g.rng.IntN(26))
		}
		if id := string(b); !g.seen[id] {
			g.seen[id] = true
			return id
		}
	}
}

// intN draws from the same seeded stream as the identifiers.
func (g *idGen) intN(n int) int {
	return g.rng.IntN(n)
}

// env is what a workload's set-up gets: the seeded input generator, a
// scratch directory inside the checkout, and the tracer (nil untraced).
type env struct {
	ids *idGen
	dir string
	tr  *tracer
}

// opCtx identifies one op for tracing.
type opCtx struct {
	id   int64
	span int64
	tr   *tracer
}

func (o *opCtx) begin(name string) spanRef { return o.tr.begin(o.id, o.span, name) }

// instance is one set-up workload: op runs one operation and checks its
// output, returning an error for a failure or a wrong answer.
type instance interface {
	op(o *opCtx) error
	close() error
}

// workload describes one benchmark workload.
type workload struct {
	name string
	// tailPct is the fixed percentile reported as op_tail_ms: the highest
	// of p90, p95, p99 and p99.9 that would leave ten samples beyond it in
	// a run of the benchmark's length even at half the op rate of a 2-CPU
	// development VM.
	tailPct float64
	// warmOps run untimed after every set-up: past the first ops' one-time
	// costs, and for job-serve until its bounded cache and store evict.
	warmOps int
	build   func(e *env) (instance, error)
}

var workloads = []*workload{
	{name: "pca-describe", tailPct: 95, warmOps: 6, build: newPCADescribe},
	{name: "session-emulate", tailPct: 95, warmOps: 6, build: newSessionEmulate},
	{name: "exact-simulate", tailPct: 95, warmOps: 6, build: newExactSimulate},
	{name: "job-serve", tailPct: 99, warmOps: 400, build: newJobServe},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// ---- pca-describe: Lemma B.2 on a freshly composed dynamic ledger pair ----

// Reference description of ComposePCA(Host(x,2,Direct), Host(y,1,Parity))
// and of its two components, for identifiers of idLen letters.
const (
	pcaRefStates = 147
	pcaRefB12    = 6256
	pcaRefB1     = 2688
	pcaRefB2     = 1816
	describeLim  = 100000
)

type pcaDescribe struct{ ids *idGen }

func newPCADescribe(e *env) (instance, error) {
	// The component constants are checked once per set-up, so the
	// composition constant c = B12/(B1+B2) each op checks rests on
	// measured values.
	x1, _ := ledger.Host(e.ids.next(), 2, ledger.Direct)
	x2, _ := ledger.Host(e.ids.next(), 1, ledger.Parity)
	for _, c := range []struct {
		x    pca.PCA
		want int
	}{{x1, pcaRefB1}, {x2, pcaRefB2}} {
		d, err := bounded.Describe(pca.DescAdapter{PCA: c.x}, describeLim)
		if err != nil {
			return nil, err
		}
		if d.B() != c.want || d.Truncated {
			return nil, fmt.Errorf("pca-describe: component %s has B=%d, want %d", c.x.ID(), d.B(), c.want)
		}
	}
	return &pcaDescribe{ids: e.ids}, nil
}

func (p *pcaDescribe) op(o *opCtx) error {
	x, y := p.ids.next(), p.ids.next()
	sp := o.begin("protocols.build")
	x1, _ := ledger.Host(x, 2, ledger.Direct)
	x2, _ := ledger.Host(y, 1, ledger.Parity)
	sp.end()
	sp = o.begin("pca.compose")
	comp, err := pca.ComposePCA(x1, x2)
	sp.end()
	if err != nil {
		return err
	}
	sp = o.begin("bounded.describe")
	d, err := bounded.Describe(pca.DescAdapter{PCA: comp}, describeLim)
	sp.end()
	if err != nil {
		return err
	}
	c := float64(d.B()) / float64(pcaRefB1+pcaRefB2)
	if d.States != pcaRefStates || d.B() != pcaRefB12 || d.Truncated || c > 3 {
		return fmt.Errorf("pca-describe: %d states, B=%d, truncated=%v, c=%.3f; want %d states, B=%d, c<=3",
			d.States, d.B(), d.Truncated, c, pcaRefStates, pcaRefB12)
	}
	return nil
}

func (p *pcaDescribe) close() error { return nil }

// ---- session-emulate: Def 4.26 on one run-time-created channel session ----

// emulateSchema is E11's three-template priority schema.
var emulateSchema = [][]string{
	{"open", "send", "encrypt", "tap", "notify", "fabricate", "guess", "deliver"},
	{"open", "send", "encrypt", "tap", "notify", "fabricate", "guess"},
	{"open", "send", "encrypt", "tap", "notify", "deliver"},
}

type sessionEmulate struct{ ids *idGen }

func newSessionEmulate(e *env) (instance, error) { return &sessionEmulate{ids: e.ids}, nil }

func (s *sessionEmulate) op(o *opCtx) error {
	x := s.ids.next()
	sp := o.begin("protocols.build")
	real := dynchannel.Host(x, 1, dynchannel.RealKind)
	ideal := dynchannel.Host(x, 1, dynchannel.IdealKind)
	cases := []core.AdvSim{{Adv: dynchannel.Adversary(x, 1), Sim: dynchannel.Simulator(x, 1)}}
	opt := core.Options{
		Envs:    []psioa.PSIOA{dynchannel.Env(x, []int{0}), dynchannel.Env(x, []int{1})},
		Schema:  &sched.PrefixPrioritySchema{Templates: emulateSchema},
		Insight: insight.Trace(),
		Eps:     0, Q1: 10, Q2: 10,
	}
	sp.end()
	sp = o.begin("core.emulate")
	rep, err := core.SecureEmulates(real, ideal, cases, opt, 20000)
	sp.end()
	if err != nil {
		return err
	}
	dist := 0.0
	for _, r := range rep.PerAdv {
		dist = math.Max(dist, r.MaxDist)
	}
	if !rep.Holds || dist != 0 {
		return fmt.Errorf("session-emulate: holds=%v max dist=%g; want holds at distance 0", rep.Holds, dist)
	}
	return nil
}

func (s *sessionEmulate) close() error { return nil }

// ---- exact-simulate: exact trace measure through engine.Runner ----

const (
	simRefExecutions = 4195
	simRefOutcomes   = 199
)

// exactSimulate shares one Pool(2) across ops but gives each op a fresh
// memo cache, as one dsesim invocation has. A cache shared across ops
// keeps every op's composed automaton in its identity-keyed fingerprint
// memo (up to 8192 of them), so the live heap, and with it GC pacing and
// peak RSS, would grow with the number of ops a run completes.
type exactSimulate struct {
	ids  *idGen
	pool *engine.Pool
	tr   *tracer
}

func newExactSimulate(e *env) (instance, error) {
	return &exactSimulate{ids: e.ids, pool: engine.NewPool(2), tr: e.tr}, nil
}

func (s *exactSimulate) op(o *opCtx) error {
	job := engine.Job{Kind: engine.KindSimulate, Simulate: &engine.SimulateSpec{
		Systems: []string{"ledger:direct:" + s.ids.next() + ":2"},
		Sched:   "random",
		Bound:   10,
	}}
	sp := o.begin("engine.run")
	res, err := engine.NewRunner(s.pool, engine.NewCache(0)).Run(context.Background(), job)
	sp.end()
	if err != nil {
		return err
	}
	s.tr.report(res.Report)
	sr := res.Simulate
	if sr == nil || !sr.Exact || sr.Partial || sr.Executions != simRefExecutions ||
		len(sr.Outcomes) != simRefOutcomes || math.Abs(sr.TotalMass-1) > 1e-9 {
		return fmt.Errorf("exact-simulate: got %+v; want exact mass 1 over %d executions and %d outcomes",
			sr, simRefExecutions, simRefOutcomes)
	}
	return nil
}

func (s *exactSimulate) close() error { return nil }

// ---- job-serve: async jobs through the engine store and durable layer ----

// Job-serve is wired as dsed -store-dir wires it, with two settings
// changed. The disk store holds jobStoreEntries entries, so its eviction is
// in its steady state by the end of warm-up. Commits and appends are not
// fsync'd, as with dsed -fsync=false: the store lives inside the checkout,
// on whatever disk that is, and there fsync latency follows other tenants'
// I/O (on a 2-CPU VM with an ext4 disk, throughput moved by 40% between
// runs minutes apart), which would make the benchmark measure the disk
// rather than the program. Every write, rename and append still runs.
const (
	jobCacheEntries = engine.DefaultCacheSize
	jobStoreEntries = 128
	jobQueue        = 64
	jobBreakerK     = 3
	jobRetries      = 2
	jobFsync        = false
	// jobBlock is one shuffled block of the job mix: three fresh specs and
	// one repeat of each class, so every block is the same mix.
	jobBlock       = 16
	jobRepeatDepth = 4
)

// jobClass is one kind of small spec in the job mix, with its reference
// verdict.
type jobClass struct {
	name  string
	spec  func(id string) engine.Job
	check func(res *engine.Result) error
}

var jobClasses = []jobClass{
	{
		name: "coin-check",
		spec: func(id string) engine.Job {
			return engine.Job{Kind: engine.KindCheck, Check: &engine.CheckSpec{
				Left: "coin:leaky:" + id + ":4", Right: "coin:fair:" + id, Envs: []string{"coin:env:" + id},
				Eps: 0.0625, Q1: 3,
			}}
		},
		check: func(res *engine.Result) error {
			if c := res.Check; c == nil || !c.Holds || c.MaxDist != 0.0625 {
				return fmt.Errorf("coin-check: got %+v, want holds at distance 0.0625", c)
			}
			return nil
		},
	},
	{
		name: "flip-check",
		spec: func(id string) engine.Job {
			return engine.Job{Kind: engine.KindCheck, Check: &engine.CheckSpec{
				Left: "flip:corrupt:" + id + ":2", Right: "flip:ideal:" + id, Envs: []string{"flip:env:" + id},
				Schema: "priority", Templates: [][]string{{"pick", "share", "bias1", "toss", "announce", "result"}},
				Eps: 0, Q1: 12,
			}}
		},
		check: func(res *engine.Result) error {
			if c := res.Check; c == nil || c.Holds || c.MaxDist != 1 {
				return fmt.Errorf("flip-check: got %+v, want the attack found at distance 1", c)
			}
			return nil
		},
	},
	{
		name: "chan-simulate",
		spec: func(id string) engine.Job {
			return engine.Job{Kind: engine.KindSimulate, Simulate: &engine.SimulateSpec{
				Systems: []string{"chan:real:" + id, "chan:env:" + id + ":1"},
				Sched:   "priority", Order: []string{"send", "encrypt", "tap", "deliver"}, Bound: 8,
			}}
		},
		check: func(res *engine.Result) error {
			s := res.Simulate
			if s == nil || !s.Exact || s.Partial || s.Executions != 2 || s.TotalMass != 1 ||
				len(s.Outcomes) != 2 || s.Outcomes[0].P != 0.5 || s.Outcomes[1].P != 0.5 {
				return fmt.Errorf("chan-simulate: got %+v, want two executions of mass 1/2", s)
			}
			return nil
		},
	},
	{
		// One sub-chain: describing ledger:direct:<x>:2 takes about eight
		// times as long as any other class and would split the latency
		// distribution into two modes.
		name: "ledger-describe",
		spec: func(id string) engine.Job {
			return engine.Job{Kind: engine.KindDescribe, Describe: &engine.DescribeSpec{
				Systems: []string{"ledger:direct:" + id + ":1"},
			}}
		},
		check: func(res *engine.Result) error {
			d := res.Describe
			if d == nil || len(d.Systems) != 1 || d.Systems[0].States != 5 || d.Systems[0].Actions != 5 ||
				d.Systems[0].Truncated || d.Systems[0].QueryMaxBits != ledgerRefQueryMaxBits {
				return fmt.Errorf("ledger-describe: got %+v, want 5 states, 5 actions, %d query bits", d, ledgerRefQueryMaxBits)
			}
			return nil
		},
	},
}

const ledgerRefQueryMaxBits = 1800

// jobSpec is one drawn job: its class, its spec, and the canonical bytes
// of its first completed run, shared with its repeats.
type jobSpec struct {
	class int
	job   engine.Job
	first *firstRun
}

type firstRun struct {
	data []byte
}

// jobMix draws the job sequence from the seed, one shuffled block at a
// time. A repeat re-submits one of its class's last jobRepeatDepth fresh
// specs, recent enough that the engine cache may still hold its entries.
type jobMix struct {
	ids    *idGen
	block  []jobSpec
	recent [][]jobSpec
}

func (m *jobMix) next() jobSpec {
	if len(m.block) == 0 {
		m.fill()
	}
	s := m.block[0]
	m.block = m.block[1:]
	return s
}

func (m *jobMix) fill() {
	var plan []int // class index; negative marks a repeat of class -1-i
	for c := range jobClasses {
		for i := 0; i < (jobBlock/len(jobClasses))-1; i++ {
			plan = append(plan, c)
		}
		plan = append(plan, -1-c)
	}
	for i := len(plan) - 1; i > 0; i-- {
		j := m.ids.intN(i + 1)
		plan[i], plan[j] = plan[j], plan[i]
	}
	fresh := make([][]jobSpec, len(jobClasses))
	for _, p := range plan {
		if p < 0 && len(m.recent[-1-p]) > 0 {
			r := m.recent[-1-p]
			m.block = append(m.block, r[m.ids.intN(len(r))])
			continue
		}
		if p < 0 {
			p = -1 - p // no earlier block to repeat from yet
		}
		s := jobSpec{class: p, job: jobClasses[p].spec(m.ids.next()), first: &firstRun{}}
		fresh[p] = append(fresh[p], s)
		m.block = append(m.block, s)
	}
	for c := range fresh {
		m.recent[c] = append(m.recent[c], fresh[c]...)
		if n := len(m.recent[c]); n > jobRepeatDepth {
			m.recent[c] = m.recent[c][n-jobRepeatDepth:]
		}
	}
}

type jobServe struct {
	dir    string
	jr     *durable.Journal
	store  *engine.Store
	runner *engine.Runner
	mix    *jobMix
	tr     *tracer
}

func newJobServe(e *env) (instance, error) {
	dir, err := os.MkdirTemp(e.dir, "job-serve-")
	if err != nil {
		return nil, err
	}
	j := &jobServe{dir: dir, tr: e.tr}
	j.mix = &jobMix{ids: e.ids, recent: make([][]jobSpec, len(jobClasses))}
	ds, err := durable.Open(filepath.Join(dir, "store"), durable.StoreOptions{MaxEntries: jobStoreEntries, NoFsync: !jobFsync})
	if err != nil {
		return nil, errors.Join(err, os.RemoveAll(dir))
	}
	j.jr, err = durable.OpenJournal(filepath.Join(dir, "store", "journal.jsonl"), !jobFsync)
	if err != nil {
		return nil, errors.Join(err, os.RemoveAll(dir))
	}
	dm := durable.NewManager(j.jr, ds)
	cfg := engine.StoreConfig{
		QueueLimit: jobQueue,
		Breaker:    resilience.NewBreaker(jobBreakerK),
		Retry: resilience.Backoff{
			Attempts: jobRetries + 1, Base: 25 * time.Millisecond, Cap: 2 * time.Second, Jitter: 0.2, Seed: 1,
		},
		Journal: dm,
	}
	var backing engine.RawBacking = ds
	if e.tr != nil {
		cfg.Journal = &timedSink{inner: dm, tr: e.tr, running: map[string]time.Duration{}}
		backing = &timedBacking{inner: ds, tr: e.tr}
	}
	j.store = engine.NewStoreWith(cfg)
	j.runner = engine.NewRunner(engine.NewPool(0), engine.NewCache(jobCacheEntries))
	j.runner.Cache.SetRawBacking(backing)
	if _, err := dm.Replay(context.Background(), j.store, j.runner); err != nil {
		return nil, errors.Join(err, j.close())
	}
	return j, nil
}

func (j *jobServe) op(o *opCtx) error { return j.serve(o, j.mix.next()) }

// serve submits one job, awaits it, and checks its verdict and what the
// durable store holds for it.
func (j *jobServe) serve(o *opCtx, s jobSpec) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	sp := o.begin("engine.submit")
	rec, err := j.store.Submit(ctx, j.runner, s.job)
	sp.end()
	if err != nil {
		return err
	}
	sp = o.begin("engine.await")
	rec, err = j.store.Await(ctx, rec.ID)
	sp.end()
	if err != nil {
		return err
	}
	woke := time.Now()
	if rec.Status != engine.StatusDone || rec.Result == nil {
		return fmt.Errorf("job-serve: %s job %s ended %s: %s", jobClasses[s.class].name, rec.ID, rec.Status, rec.Err)
	}
	if o.tr.active() {
		o.tr.add(o.id, o.span, "engine.queue_wait", rec.Submitted, rec.Started)
		o.tr.add(o.id, o.span, "engine.run", rec.Started, rec.Finished)
		o.tr.add(o.id, o.span, "engine.notify", rec.Finished, woke)
		o.tr.report(rec.Result.Report)
	}
	if err := jobClasses[s.class].check(rec.Result); err != nil {
		return err
	}
	stripped := *rec.Result
	stripped.Report = nil
	want, err := json.Marshal(&stripped)
	if err != nil {
		return err
	}
	// Read the result back the way a cluster peer does (GET
	// /v1/store/{key}): a done job must already be durable, byte for byte.
	sp = o.begin("engine.readback")
	got, err := j.runner.Cache.GetRaw(rec.Fingerprint)
	sp.end()
	if err != nil {
		return fmt.Errorf("job-serve: job %s done but not in the store: %w", rec.ID, err)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("job-serve: job %s: stored result differs from the returned one", rec.ID)
	}
	ref := s.first.data
	if ref == nil {
		s.first.data = want
	}
	if ref != nil && !bytes.Equal(ref, want) {
		return fmt.Errorf("job-serve: repeated %s spec %s returned a different result", jobClasses[s.class].name, rec.Fingerprint)
	}
	return nil
}

func (j *jobServe) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var errs []error
	if j.store != nil {
		errs = append(errs, j.store.Drain(ctx))
	}
	if j.jr != nil {
		errs = append(errs, j.jr.Close())
	}
	errs = append(errs, os.RemoveAll(j.dir))
	return errors.Join(errs...)
}

// timedSink times the durable Manager's journal callbacks. Finished
// publishes the result to the disk store and then appends the done
// record; Running appends one record. The Manager writes to its DiskStore
// directly, not through the cache's RawBacking, so the store's save time
// is taken as Finished minus Running of the same job.
type timedSink struct {
	inner engine.JournalSink
	tr    *tracer

	mu      sync.Mutex
	running map[string]time.Duration
}

func (s *timedSink) Accepted(rec *engine.JobRecord, job engine.Job) {
	t := time.Now()
	s.inner.Accepted(rec, job)
	s.tr.add(0, 0, "durable.sink", t, time.Now())
}

func (s *timedSink) Running(id string) {
	t := time.Now()
	s.inner.Running(id)
	end := time.Now()
	s.tr.add(0, 0, "durable.sink", t, end)
	s.mu.Lock()
	s.running[id] = end.Sub(t)
	s.mu.Unlock()
}

func (s *timedSink) Finished(rec *engine.JobRecord) {
	t := time.Now()
	s.inner.Finished(rec)
	end := time.Now()
	s.tr.add(0, 0, "durable.sink", t, end)
	s.mu.Lock()
	run, ok := s.running[rec.ID]
	delete(s.running, rec.ID)
	s.mu.Unlock()
	if ok && rec.Status == engine.StatusDone {
		s.tr.add(0, 0, "durable.store.save", t.Add(run), end)
	}
}

// timedBacking times the disk store's loads and saves through the cache's
// raw namespace.
type timedBacking struct {
	inner engine.RawBacking
	tr    *tracer
}

func (b *timedBacking) Load(key string) ([]byte, error) {
	t := time.Now()
	data, err := b.inner.Load(key)
	b.tr.add(0, 0, "durable.store.load", t, time.Now())
	return data, err
}

func (b *timedBacking) Save(key string, data []byte) error {
	t := time.Now()
	err := b.inner.Save(key, data)
	b.tr.add(0, 0, "durable.store.save", t, time.Now())
	return err
}
