package engine_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/engine"
)

// blockingSink is a JournalSink whose Finished signals entry and then
// blocks until released, standing in for a slow durable publication.
type blockingSink struct {
	entered chan *engine.JobRecord
	release chan struct{}
}

func (s *blockingSink) Accepted(*engine.JobRecord, engine.Job) {}
func (s *blockingSink) Running(string)                         {}
func (s *blockingSink) Finished(rec *engine.JobRecord) {
	s.entered <- rec
	<-s.release
}

// TestStoreDoneAfterFinished pins that a job becomes visible as done only
// after the journal sink's Finished returns: while the sink blocks (the
// durable publication in progress), Get, List and Await all still see the
// job unfinished.
func TestStoreDoneAfterFinished(t *testing.T) {
	sink := &blockingSink{entered: make(chan *engine.JobRecord, 1), release: make(chan struct{})}
	st := engine.NewStoreWith(engine.StoreConfig{Journal: sink})
	r := engine.NewRunner(nil, engine.NewCache(0))
	job := engine.Job{Kind: engine.KindSimulate, Simulate: &engine.SimulateSpec{
		Systems: []string{"coin:fair:x", "coin:env:x"}, Bound: 4, Seed: 1,
	}}
	rec, err := st.Submit(context.Background(), r, job)
	if err != nil {
		t.Fatal(err)
	}

	var terminal *engine.JobRecord
	select {
	case terminal = <-sink.entered:
	case <-time.After(30 * time.Second):
		t.Fatal("sink never saw Finished")
	}
	if terminal.Status != engine.StatusDone || terminal.Result == nil {
		t.Fatalf("Finished got %+v, want a done record with its result", terminal)
	}
	if got, _ := st.Get(rec.ID); got.Status != engine.StatusRunning || got.Result != nil {
		t.Fatalf("during Finished: Get = %s (result %v), want running without a result", got.Status, got.Result != nil)
	}
	if l := st.List(); len(l) != 1 || l[0].Status != engine.StatusRunning {
		t.Fatalf("during Finished: List = %+v, want the one job running", l)
	}
	if st.InFlight() != 1 {
		t.Fatalf("during Finished: InFlight = %d, want 1", st.InFlight())
	}
	short, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := st.Await(short, rec.ID); err == nil {
		t.Fatal("Await returned while Finished was still blocked")
	}

	close(sink.release)
	got, err := st.Await(context.Background(), rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != engine.StatusDone || got.Result == nil || !got.Finished.Equal(terminal.Finished) {
		t.Fatalf("after Finished: %+v, want the record handed to the sink", got)
	}
	if st.InFlight() != 0 {
		t.Fatalf("after Finished: InFlight = %d, want 0", st.InFlight())
	}
}
