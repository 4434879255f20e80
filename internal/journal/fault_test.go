package journal

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dynautosar/internal/core"
)

// Fault-injection coverage for the commit path: a full disk makes the
// journal fail sticky (with the failed tail truncated so disk state
// matches the reported outcomes), and a slow fsync grows the next
// commit's batch without losing anything. These are the hooks the
// fleet simulator's chaos scenarios drive.

var errDiskFull = errors.New("write: no space left on device")

// TestFaultDiskFullSticky: once a commit fails with ENOSPC, the ticket
// reports it, the failure is sticky, and reopening the directory
// recovers exactly the records whose tickets succeeded — the torn
// commit was truncated away.
func TestFaultDiskFullSticky(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{})
	for i := 0; i < 3; i++ {
		if err := j.Append(UserAddedRec(core.UserID(fmt.Sprintf("ok%d", i)))).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	j.SetFault(&FaultInjection{WriteErr: func(int) error { return errDiskFull }})
	if err := j.Append(UserAddedRec("lost")).Wait(); err == nil {
		t.Fatal("append committed on a full disk")
	}
	if err := j.Err(); err == nil {
		t.Fatal("commit failure is not sticky")
	}
	// Clearing the fault does not un-fail the journal: the segment's
	// contents past the last good commit are undefined.
	j.SetFault(nil)
	if err := j.Append(UserAddedRec("late")).Wait(); err == nil {
		t.Fatal("append accepted after a sticky commit failure")
	}
	j.Crash()

	_, rec := mustOpen(t, dir, Options{})
	if rec.TornTail {
		t.Fatal("disk-full crash left a torn tail; the failed commit was not truncated")
	}
	got := userIDs(rec.Records)
	if len(got) != 3 || got[0] != "ok0" || got[2] != "ok2" {
		t.Fatalf("recovered users %v, want exactly the acknowledged ones", got)
	}
}

// TestFaultSyncErrSticky: a sync failure takes the same sticky path as
// a write failure.
func TestFaultSyncErrSticky(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{})
	j.SetFault(&FaultInjection{SyncErr: func() error { return errors.New("fsync: input/output error") }})
	if err := j.Append(UserAddedRec("u")).Wait(); err == nil {
		t.Fatal("append committed despite the failed fsync")
	}
	if j.Err() == nil {
		t.Fatal("sync failure is not sticky")
	}
}

// TestFaultSlowFsync: a slow disk degrades throughput, not
// correctness — every append still commits, and appenders arriving
// while a slow commit is in flight pile into the next one instead of
// each paying a fsync of their own.
func TestFaultSlowFsync(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{})
	var syncs atomic.Int32
	j.SetFault(&FaultInjection{SyncDelay: func() time.Duration {
		syncs.Add(1)
		return 2 * time.Millisecond
	}})
	const n = 16
	start := make(chan struct{})
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			errs[i] = j.Append(UserAddedRec(core.UserID(fmt.Sprintf("slow%d", i)))).Wait()
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if j.Err() != nil {
		t.Fatalf("slow disk failed the journal: %v", j.Err())
	}
	if syncs.Load() == 0 {
		t.Fatal("sync delay hook never ran")
	}
	if st := j.Stats(); st.Appended != n || st.Flushes >= n {
		t.Fatalf("%d records in %d commits: concurrent appenders did not share commits", st.Appended, st.Flushes)
	}
	j.Crash()
	_, rec := mustOpen(t, dir, Options{})
	if got := userIDs(rec.Records); len(got) != n {
		t.Fatalf("recovered %d records, want %d", len(got), n)
	}
}

// TestFaultTransientWriteError: a fault that clears before any commit
// runs leaves the journal healthy — SetFault(nil) is a true reset for
// a journal that never failed.
func TestFaultTransientWriteError(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{})
	defer j.Close()
	j.SetFault(&FaultInjection{})
	if err := j.Append(UserAddedRec("u1")).Wait(); err != nil {
		t.Fatalf("empty fault hooks failed an append: %v", err)
	}
	j.SetFault(nil)
	if err := j.Append(UserAddedRec("u2")).Wait(); err != nil {
		t.Fatal(err)
	}
}
