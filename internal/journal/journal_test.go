package journal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dynautosar/internal/api"
	"dynautosar/internal/core"
)

func mustOpen(t *testing.T, dir string, opts Options) (*Journal, *Recovery) {
	t.Helper()
	j, rec, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return j, rec
}

func userIDs(recs []Record) []core.UserID {
	var out []core.UserID
	for _, r := range recs {
		if r.Type == TypeUserAdded {
			out = append(out, r.User.ID)
		}
	}
	return out
}

// TestJournalRoundTrip: records appended and synced before a crash are
// replayed verbatim on reopen; buffered-but-uncommitted ones are not.
func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, rec := mustOpen(t, dir, Options{})
	if rec.Image != nil || len(rec.Records) != 0 || rec.TornTail {
		t.Fatalf("fresh dir recovered %+v", rec)
	}
	for i := 0; i < 3; i++ {
		if err := j.Append(UserAddedRec(core.UserID(fmt.Sprintf("u%d", i)))).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	j.Crash()

	j2, rec2 := mustOpen(t, dir, Options{})
	defer j2.Close()
	if got := userIDs(rec2.Records); len(got) != 3 || got[0] != "u0" || got[2] != "u2" {
		t.Fatalf("replayed users %v", got)
	}
	if rec2.TornTail {
		t.Fatal("clean log reported a torn tail")
	}
}

// TestJournalGroupCommit: appenders arriving while a commit is in
// flight share the next one. The first commit is held in its fsync
// until the other 127 appenders have enqueued, so the whole burst takes
// exactly two commits — the amortization the batch engine relies on.
func TestJournalGroupCommit(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{})
	const n = 128
	holding := make(chan struct{})
	var enqueued sync.WaitGroup
	enqueued.Add(n - 1)
	var syncs atomic.Int32
	j.SetFault(&FaultInjection{SyncDelay: func() time.Duration {
		if syncs.Add(1) == 1 {
			close(holding)
			enqueued.Wait()
		}
		return 0
	}})
	var wg sync.WaitGroup
	errs := make([]error, n)
	appendWait := func(i int) {
		defer wg.Done()
		tk := j.Append(UserAddedRec(core.UserID(fmt.Sprintf("u%03d", i))))
		if i > 0 {
			enqueued.Done()
		}
		errs[i] = tk.Wait()
	}
	wg.Add(1)
	go appendWait(0)
	<-holding
	for i := 1; i < n; i++ {
		wg.Add(1)
		go appendWait(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if st := j.Stats(); st.Appended != n || st.Flushes != 2 {
		t.Fatalf("%d records in %d commits, want %d in 2", st.Appended, st.Flushes, n)
	}
	j.Crash()
	_, rec := mustOpen(t, dir, Options{})
	if len(rec.Records) != n {
		t.Fatalf("recovered %d records, want %d", len(rec.Records), n)
	}
}

// pinUnwaitedCommitAfter sets the flush bound for records nobody waits
// for, for the duration of the test.
func pinUnwaitedCommitAfter(t *testing.T, d time.Duration) {
	old := unwaitedCommitAfter
	unwaitedCommitAfter = d
	t.Cleanup(func() { unwaitedCommitAfter = old })
}

// TestCommitWaitedIgnoresBound: a waited record commits as soon as the
// writer is free, however far off the unwaited-record bound is.
func TestCommitWaitedIgnoresBound(t *testing.T) {
	pinUnwaitedCommitAfter(t, time.Hour)
	j, _ := mustOpen(t, t.TempDir(), Options{})
	defer j.Close()
	if err := j.Append(UserAddedRec("u")).Wait(); err != nil {
		t.Fatal(err)
	}
	if st := j.Stats(); st.Appended != 1 || st.Flushes != 1 {
		t.Fatalf("%d records in %d commits, want 1 in 1", st.Appended, st.Flushes)
	}
}

// TestCommitUnwaitedRidesNextSync: records nobody waits for do not
// commit on their own; the next Sync commits all of them in one flush.
func TestCommitUnwaitedRidesNextSync(t *testing.T) {
	pinUnwaitedCommitAfter(t, time.Hour)
	j, _ := mustOpen(t, t.TempDir(), Options{})
	defer j.Close()
	const n = 16
	for i := 0; i < n; i++ {
		j.Append(UserAddedRec(core.UserID(fmt.Sprintf("u%d", i))))
	}
	// Give a writer that commits unasked time to do so; nothing here
	// depends on how long that takes.
	time.Sleep(10 * time.Millisecond)
	if st := j.Stats(); st.Flushes != 0 {
		t.Fatalf("unwaited records committed on their own: %+v", st)
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := j.Stats(); st.Appended != n || st.Flushes != 1 {
		t.Fatalf("%d records in %d commits, want %d in 1", st.Appended, st.Flushes, n)
	}
}

// TestCommitUnwaitedAfterBound: with no waited commit to ride along
// with, unwaited records still become durable once the bound passes.
func TestCommitUnwaitedAfterBound(t *testing.T) {
	pinUnwaitedCommitAfter(t, time.Millisecond)
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{})
	synced := make(chan struct{})
	var once sync.Once
	j.SetFault(&FaultInjection{SyncErr: func() error {
		once.Do(func() { close(synced) })
		return nil
	}})
	const n = 4
	for i := 0; i < n; i++ {
		j.Append(UserAddedRec(core.UserID(fmt.Sprintf("u%d", i))))
	}
	<-synced
	j.Crash()
	_, rec := mustOpen(t, dir, Options{})
	if got := userIDs(rec.Records); len(got) != n {
		t.Fatalf("recovered %v, want all %d unwaited records", got, n)
	}
}

// TestJournalTornTail: a record truncated mid-frame (the shape of a
// crash mid-append) is dropped, the prefix survives, and the journal
// keeps appending at the truncation point.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{})
	for _, u := range []core.UserID{"alice", "bob"} {
		if err := j.Append(UserAddedRec(u)).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	j.Crash()
	wal := walPath(dir, 0)
	fi, err := os.Stat(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(wal, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	j2, rec := mustOpen(t, dir, Options{})
	if !rec.TornTail {
		t.Fatal("truncated tail not reported")
	}
	if got := userIDs(rec.Records); len(got) != 1 || got[0] != "alice" {
		t.Fatalf("recovered %v, want [alice]", got)
	}
	// The segment keeps working after truncation.
	if err := j2.Append(UserAddedRec("carol")).Wait(); err != nil {
		t.Fatal(err)
	}
	j2.Crash()
	_, rec3 := mustOpen(t, dir, Options{})
	if got := userIDs(rec3.Records); len(got) != 2 || got[1] != "carol" || rec3.TornTail {
		t.Fatalf("after re-append recovered %v (torn=%v)", got, rec3.TornTail)
	}
}

// TestJournalCorruptChecksum: a record whose payload no longer matches
// its checksum is dropped along with everything after it.
func TestJournalCorruptChecksum(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{})
	for _, u := range []core.UserID{"alice", "bob"} {
		if err := j.Append(UserAddedRec(u)).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	j.Crash()
	wal := walPath(dir, 0)
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0xff // scribble inside the last record's payload
	if err := os.WriteFile(wal, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, rec := mustOpen(t, dir, Options{})
	if !rec.TornTail {
		t.Fatal("corrupt record not reported as torn")
	}
	if got := userIDs(rec.Records); len(got) != 1 || got[0] != "alice" {
		t.Fatalf("recovered %v, want [alice]", got)
	}
}

// TestJournalCompaction: once the record threshold trips, the journal
// writes the source's image as the next generation and removes the old
// segment pair; reopen loads the image plus the post-snapshot tail.
func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{SnapshotEvery: 4})
	var mu sync.Mutex
	seen := 0
	j.SetSnapshotSource(func() *StateImage {
		img := NewStateImage()
		mu.Lock()
		img.OpSeq = uint64(seen)
		mu.Unlock()
		return img
	})
	for i := 0; i < 6; i++ {
		t2 := j.Append(UserAddedRec(core.UserID(fmt.Sprintf("u%d", i))))
		if err := t2.Wait(); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		seen++
		mu.Unlock()
	}
	// Force the rotation to have happened (threshold checks run after
	// flushes; an explicit snapshot serializes behind them).
	if err := j.Snapshot(); err != nil {
		t.Fatal(err)
	}
	st := j.Stats()
	if st.Gen == 0 || st.SinceSnapshot != 0 {
		t.Fatalf("stats after compaction: %+v", st)
	}
	// Exactly one generation pair remains on disk.
	snaps, _ := filepath.Glob(filepath.Join(dir, "snapshot-*.snap"))
	wals, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(snaps) != 1 || len(wals) != 1 {
		t.Fatalf("files after compaction: %v %v", snaps, wals)
	}
	// Post-snapshot records replay over the image.
	if err := j.Append(UserAddedRec("tail")).Wait(); err != nil {
		t.Fatal(err)
	}
	j.Crash()
	_, rec := mustOpen(t, dir, Options{})
	if rec.Image == nil || rec.Image.OpSeq != 6 {
		t.Fatalf("image %+v, want OpSeq 6", rec.Image)
	}
	if got := userIDs(rec.Records); len(got) != 1 || got[0] != "tail" {
		t.Fatalf("tail records %v, want [tail]", got)
	}
}

// TestJournalCloseFlushes: Close commits buffered records; reopen sees
// them without a torn tail.
func TestJournalCloseFlushes(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{})
	j.Append(UserAddedRec("alice")) // ticket dropped on purpose
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(UserAddedRec("bob")).Wait(); err == nil {
		t.Fatal("append after close succeeded")
	}
	_, rec := mustOpen(t, dir, Options{})
	if got := userIDs(rec.Records); len(got) != 1 || got[0] != "alice" || rec.TornTail {
		t.Fatalf("recovered %v (torn=%v)", got, rec.TornTail)
	}
}

// TestJournalOpRecords: the operation payloads survive the wire format.
func TestJournalOpRecords(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{})
	op := api.Operation{ID: "op-00000007", Kind: api.OpDeploy, Vehicle: "VIN1", State: api.StateRunning}
	j.Append(OpCreatedRec(op))
	op.State, op.Done = api.StateSucceeded, true
	if err := j.Append(OpSettledRec(op)).Wait(); err != nil {
		t.Fatal(err)
	}
	j.Crash()
	_, rec := mustOpen(t, dir, Options{})
	if len(rec.Records) != 2 {
		t.Fatalf("recovered %d records", len(rec.Records))
	}
	if rec.Records[0].Type != TypeOpCreated || rec.Records[0].Op.Op.ID != "op-00000007" {
		t.Fatalf("created record %+v", rec.Records[0])
	}
	if got := rec.Records[1]; got.Type != TypeOpSettled || !got.Op.Op.Done || got.Op.Op.State != api.StateSucceeded {
		t.Fatalf("settled record %+v", got)
	}
}

// TestEncodeRecordRoundTrip: the hand-encoded hot path and the
// encoding/json fallback parse back to the same record, including the
// escape-triggered fallback.
func TestEncodeRecordRoundTrip(t *testing.T) {
	row := api.InstalledApp{App: "RemoteControl", Vehicle: "VIN-1", Plugins: []api.InstalledPlugin{
		{Plugin: "COM", ECU: "ECU1", SWC: "SWC1",
			PIC: core.PIC{{Name: "WheelsExt", ID: 0}, {Name: "SpeedExt", ID: 3}}, Acked: true},
		{Plugin: "OP", ECU: "ECU2", SWC: "SWC2"},
	}}
	recs := []Record{
		InstallRecordedRec(row),
		InstallAckedRec("VIN-1", "RemoteControl", "COM"),
		InstallRemovedRec("VIN-1", "RemoteControl"),
		PluginDroppedRec("VIN-1", "RemoteControl", "OP"),
		// Escapes force the encoding/json fallback.
		InstallAckedRec(`VIN-"quote"`, "App\\Back", "plug\nnl"),
		InstallAckedRec("VIN-üñïcode", "RemoteControl", "COM"),
		UserAddedRec("alice"),
	}
	for i, rec := range recs {
		fast, _, err := encodeRecord(rec)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		slow, err := json.Marshal(rec)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		var a, b Record
		if err := json.Unmarshal(fast, &a); err != nil {
			t.Fatalf("record %d: fast payload unparsable: %v\n%s", i, err, fast)
		}
		if err := json.Unmarshal(slow, &b); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("record %d: fast %+v != slow %+v", i, a, b)
		}
	}
}
