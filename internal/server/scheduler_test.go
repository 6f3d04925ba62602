package server

import (
	"context"
	"testing"
)

// TestSchedulerAdmitsBackToBackJobs pins admission by count: a job's slot
// is free once its done channel closes, so sequential jobs on a pool with
// no queue are never rejected, even before the worker is back at its
// receive (or, for the first job, before it first gets there).
func TestSchedulerAdmitsBackToBackJobs(t *testing.T) {
	s := newScheduler(1, 0, nil)
	defer s.Shutdown(context.Background())
	for i := 0; i < 1000; i++ {
		task, err := s.Submit(func(context.Context) {})
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		<-task.done
	}
}
