package engine

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/resilience"
)

// Job lifecycle states.
const (
	StatusQueued  = "queued"
	StatusRunning = "running"
	StatusDone    = "done"
	StatusFailed  = "failed"
)

// Observability instruments for the store.
var (
	cJobsSubmitted = obs.C("engine.jobs.submitted")
	cJobsCompleted = obs.C("engine.jobs.completed")
	cJobsErrored   = obs.C("engine.jobs.errored")
	cJobsShed      = obs.C("engine.jobs.shed")
	cJobsRejected  = obs.C("engine.jobs.rejected")
	gJobsRunning   = obs.G("engine.jobs.running")
	gJobsInFlight  = obs.G("engine.jobs.inflight")
)

// JobRecord is the stored state of a submitted job. Records returned by the
// store are copies; mutating them does not affect the store.
type JobRecord struct {
	ID   string `json:"id"`
	Kind string `json:"kind"`
	// Fingerprint is the job's canonical workload identity (Job.Fingerprint)
	// — the key its result is content-addressed under in the durable store.
	Fingerprint string    `json:"fingerprint,omitempty"`
	Status      string    `json:"status"`
	Submitted   time.Time `json:"submitted"`
	Started     time.Time `json:"started,omitempty"`
	Finished    time.Time `json:"finished,omitempty"`
	Result      *Result   `json:"result,omitempty"`
	Err         string    `json:"error,omitempty"`
	// ErrClass is the resilience classification of Err ("deadline",
	// "budget", "panic", ...), empty for unclassified errors.
	ErrClass string `json:"error_class,omitempty"`
}

// JournalSink receives async job lifecycle transitions for write-ahead
// journaling (see internal/durable). Implementations must be fast and must
// not call back into the store; every method may be invoked concurrently
// for different jobs. For one job the store guarantees the order
// Accepted → Running → Finished.
type JournalSink interface {
	// Accepted is invoked after admission (queue and breaker checks
	// passed), before the job starts, with the full job for later replay.
	Accepted(rec *JobRecord, job Job)
	// Running is invoked when the job leaves the queue and starts.
	Running(id string)
	// Finished is invoked with the terminal record (StatusDone with its
	// result, or StatusFailed with the classified error) before the store
	// makes it visible: Get and List report the job running until
	// Finished returns, so an implementation that persists the result
	// here makes done mean durable.
	Finished(rec *JobRecord)
}

// StoreConfig hardens a Store. The zero value preserves the permissive
// behaviour: unbounded queue, no breaker, no retries.
type StoreConfig struct {
	// QueueLimit bounds queued + running async jobs; submissions beyond
	// it are shed with resilience.ErrQueueFull. 0 means unbounded.
	QueueLimit int
	// Breaker quarantines job fingerprints that panic repeatedly; nil
	// disables quarantine. Share the same breaker with the synchronous
	// request path so both see the same quarantine state.
	Breaker *resilience.Breaker
	// Retry is the backoff policy for transient job failures; the zero
	// value runs each job once.
	Retry resilience.Backoff
	// Journal, when non-nil, receives every async job lifecycle transition
	// for write-ahead journaling, so a restarted daemon can replay
	// unfinished work (see internal/durable).
	Journal JournalSink
}

// Store tracks submitted jobs and runs them asynchronously on a Runner. It
// is safe for concurrent use; the runner's pool bounds actual parallelism,
// so submitting many jobs at once queues them for worker slots rather than
// oversubscribing the process.
type Store struct {
	cfg      StoreConfig
	mu       sync.Mutex
	seq      int
	running  int
	inflight int
	jobs     map[string]*JobRecord
	done     map[string]chan struct{}
	wg       sync.WaitGroup
}

// NewStore returns an empty, unhardened job store (no queue bound, no
// breaker, no retries).
func NewStore() *Store {
	return NewStoreWith(StoreConfig{})
}

// NewStoreWith returns an empty job store hardened per cfg.
func NewStoreWith(cfg StoreConfig) *Store {
	return &Store{
		cfg:  cfg,
		jobs: make(map[string]*JobRecord),
		done: make(map[string]chan struct{}),
	}
}

// Breaker exposes the store's circuit breaker (nil when unconfigured) so
// the synchronous request path can share its quarantine state.
func (st *Store) Breaker() *resilience.Breaker { return st.cfg.Breaker }

// QueueLimit returns the configured shed threshold (0 = unbounded).
func (st *Store) QueueLimit() int { return st.cfg.QueueLimit }

// InFlight returns the number of async jobs queued or running.
func (st *Store) InFlight() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.inflight
}

// Submit registers the job and starts it on the runner in a new goroutine,
// returning the queued record immediately. The context governs the job's
// whole run (the daemon passes a jobs context that outlives the listener,
// so shutdown can drain before cancelling).
//
// Submission fails fast — without creating a record — when the bounded
// queue is saturated (resilience.ErrQueueFull; the daemon sheds with 503 +
// Retry-After) or the job's fingerprint is quarantined by the breaker
// (resilience.ErrQuarantined). Jobs run behind panic isolation, transient
// failures are retried per the store's backoff policy, and the breaker
// observes every terminal outcome.
func (st *Store) Submit(ctx context.Context, r *Runner, job Job) (*JobRecord, error) {
	return st.submit(ctx, r, job, "", true)
}

// Resubmit is Submit for journal replay: the job re-enters the queue under
// its original ID, bypassing the admission checks (it was already admitted
// before the crash — shedding it now would lose accepted work) and without
// re-journaling an accepted record (the original one is still in the
// journal). The ID must not collide with a live record.
func (st *Store) Resubmit(ctx context.Context, r *Runner, job Job, id string) (*JobRecord, error) {
	if id == "" {
		return nil, fmt.Errorf("engine: resubmit needs a job id")
	}
	return st.submit(ctx, r, job, id, false)
}

// submit implements Submit (fresh, auto-ID) and Resubmit (replayed,
// pinned ID, admission checks and the accepted-journal append skipped).
func (st *Store) submit(ctx context.Context, r *Runner, job Job, id string, fresh bool) (*JobRecord, error) {
	fp := job.Fingerprint()
	if fresh {
		if err := st.cfg.Breaker.Allow(fp); err != nil {
			cJobsRejected.Inc()
			return nil, err
		}
	}
	st.mu.Lock()
	if fresh && st.cfg.QueueLimit > 0 && st.inflight >= st.cfg.QueueLimit {
		n := st.inflight
		st.mu.Unlock()
		cJobsShed.Inc()
		return nil, fmt.Errorf("engine: %d jobs in flight: %w", n, resilience.ErrQueueFull)
	}
	if id == "" {
		st.seq++
		id = fmt.Sprintf("j%04d", st.seq)
	} else {
		if _, exists := st.jobs[id]; exists {
			st.mu.Unlock()
			return nil, fmt.Errorf("engine: job %q already exists", id)
		}
		st.bumpSeqLocked(id)
	}
	st.inflight++
	gJobsInFlight.Set(int64(st.inflight))
	rec := &JobRecord{ID: id, Kind: job.Kind, Fingerprint: fp, Status: StatusQueued, Submitted: time.Now()}
	st.jobs[id] = rec
	ch := make(chan struct{})
	st.done[id] = ch
	queued := rec.clone()
	st.wg.Add(1)
	st.mu.Unlock()
	cJobsSubmitted.Inc()
	if fresh && st.cfg.Journal != nil {
		// Write-ahead: the accepted record (with the full job spec) is on
		// disk before the job can produce any other journal event — the
		// worker goroutine has not been launched yet.
		st.cfg.Journal.Accepted(queued, job)
	}

	go func() {
		defer st.wg.Done()
		defer close(ch)
		st.update(id, func(r *JobRecord) {
			r.Status = StatusRunning
			r.Started = time.Now()
		})
		if st.cfg.Journal != nil {
			st.cfg.Journal.Running(id)
		}
		st.addRunning(1)
		var res *Result
		err := resilience.Retry(ctx, st.cfg.Retry, func() error {
			var rerr error
			res, rerr = r.RunSafe(ctx, job)
			return rerr
		})
		st.addRunning(-1)
		st.cfg.Breaker.Observe(fp, err)
		// Build the terminal record privately and hand it to the journal
		// sink first: the durable publication happens inside Finished, so
		// Get and List show done only for a result a crash would recover.
		st.mu.Lock()
		terminal := st.jobs[id].clone()
		st.mu.Unlock()
		terminal.Finished = time.Now()
		if err != nil {
			terminal.Status = StatusFailed
			terminal.Err = err.Error()
			terminal.ErrClass = resilience.Class(err)
		} else {
			terminal.Status = StatusDone
			terminal.Result = res
		}
		if st.cfg.Journal != nil {
			st.cfg.Journal.Finished(terminal.clone())
		}
		st.mu.Lock()
		st.jobs[id] = terminal
		st.inflight--
		gJobsInFlight.Set(int64(st.inflight))
		st.mu.Unlock()
		if err != nil {
			cJobsErrored.Inc()
		} else {
			cJobsCompleted.Inc()
		}
	}()
	return queued, nil
}

// Restore inserts an already-terminal job record, as recovered from the
// journal by replay. The record must be StatusDone or StatusFailed; its
// Await channel is pre-closed so waiters return immediately. Restores do
// not touch the queue bound, the breaker, or the journal.
func (st *Store) Restore(rec *JobRecord) error {
	if rec == nil || rec.ID == "" {
		return fmt.Errorf("engine: restore needs a job record with an id")
	}
	if rec.Status != StatusDone && rec.Status != StatusFailed {
		return fmt.Errorf("engine: restore requires a terminal record, got %q", rec.Status)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, exists := st.jobs[rec.ID]; exists {
		return fmt.Errorf("engine: job %q already exists", rec.ID)
	}
	st.bumpSeqLocked(rec.ID)
	st.jobs[rec.ID] = rec.clone()
	ch := make(chan struct{})
	close(ch)
	st.done[rec.ID] = ch
	return nil
}

// bumpSeqLocked raises the ID sequence past a restored/replayed job ID so
// freshly submitted jobs never collide with recovered ones.
func (st *Store) bumpSeqLocked(id string) {
	var n int
	if _, err := fmt.Sscanf(id, "j%d", &n); err == nil && n > st.seq {
		st.seq = n
	}
}

// Drain blocks until every in-flight async job has reached a terminal
// state or ctx expires (returning the classified context error). Pair it
// with a jobs context separate from the shutdown signal: stop accepting
// work, Drain with a grace period, then cancel the jobs context so
// stragglers terminate through their own cancellation checkpoints.
func (st *Store) Drain(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		st.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return resilience.CtxError(ctx)
	}
}

// Get returns a copy of the record for id.
func (st *Store) Get(id string) (*JobRecord, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	rec, ok := st.jobs[id]
	if !ok {
		return nil, false
	}
	return rec.clone(), true
}

// List returns copies of all records, sorted by ID (= submission order).
func (st *Store) List() []*JobRecord {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]*JobRecord, 0, len(st.jobs))
	for _, rec := range st.jobs {
		out = append(out, rec.clone())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Await blocks until the job finishes or the context expires, returning the
// final record.
func (st *Store) Await(ctx context.Context, id string) (*JobRecord, error) {
	st.mu.Lock()
	ch, ok := st.done[id]
	st.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("engine: unknown job %q", id)
	}
	select {
	case <-ch:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	rec, _ := st.Get(id)
	return rec, nil
}

func (st *Store) addRunning(d int) {
	st.mu.Lock()
	st.running += d
	gJobsRunning.Set(int64(st.running))
	st.mu.Unlock()
}

func (st *Store) update(id string, fn func(*JobRecord)) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if rec, ok := st.jobs[id]; ok {
		fn(rec)
	}
}

func (r *JobRecord) clone() *JobRecord {
	c := *r
	return &c
}
