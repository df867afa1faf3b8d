package sweep

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"marketminer/internal/backtest"
)

// completeJournal runs a small single-shard sweep to completion and
// returns its journal path, config, and the single-shot reference.
func completeJournal(t *testing.T) (string, backtest.Config, *backtest.Result) {
	t.Helper()
	cfg := testConfig(t, 4, 1, 2, 11)
	want, err := backtest.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "s.journal")
	if _, err := Run(context.Background(), RunConfig{Config: cfg, BlockSize: 3, Shard: Shard{0, 1}, JournalPath: path}); err != nil {
		t.Fatal(err)
	}
	return path, cfg, want
}

// reRun resumes the journal and reports how many units were
// re-executed, asserting the healed sweep still matches the reference.
func reRun(t *testing.T, path string, cfg backtest.Config, want *backtest.Result, wantRecovered bool) int {
	t.Helper()
	st, err := Run(context.Background(), RunConfig{Config: cfg, BlockSize: 3, Shard: Shard{0, 1}, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if wantRecovered && st.Recovered == nil {
		t.Fatal("corruption was not detected/reported")
	}
	if !wantRecovered && st.Recovered != nil {
		t.Fatalf("unexpected corruption report: %v", st.Recovered)
	}
	got, _, err := MergeFiles([]string{path})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, want, got, "post-recovery")
	return st.UnitsExecuted
}

// TestJournalTruncatedTail cuts the final entry mid-line — the shape a
// hard kill during a write leaves — and asserts detection plus minimal
// re-execution: exactly the one damaged unit runs again.
func TestJournalTruncatedTail(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	path, cfg, want := completeJournal(t)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-10); err != nil {
		t.Fatal(err)
	}
	if n := reRun(t, path, cfg, want, true); n != 1 {
		t.Fatalf("re-executed %d units after a truncated tail, want exactly 1", n)
	}
}

// TestJournalGarbageTail appends a non-entry line; recovery drops it
// and re-runs nothing because every real unit survived.
func TestJournalGarbageTail(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	path, cfg, want := completeJournal(t)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("!!not json at all!!\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if n := reRun(t, path, cfg, want, true); n != 0 {
		t.Fatalf("re-executed %d units after trailing garbage, want 0", n)
	}
}

// TestJournalChecksumMismatch flips a payload byte inside the final
// entry; the CRC catches silent bit damage that still parses as JSON.
func TestJournalChecksumMismatch(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	path, cfg, want := completeJournal(t)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a digit inside the last line's payload (well clear of the
	// line structure so the line still parses).
	i := len(b) - 20
	for ; i > 0; i-- {
		if b[i] >= '1' && b[i] <= '8' {
			b[i]++
			break
		}
	}
	if i == 0 {
		t.Fatal("no digit found to corrupt")
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if n := reRun(t, path, cfg, want, true); n != 1 {
		t.Fatalf("re-executed %d units after checksum damage, want exactly 1", n)
	}
}

// TestJournalCorruptHeader is unrecoverable by truncation and must
// error rather than silently restart.
func TestJournalCorruptHeader(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	path, cfg, _ := completeJournal(t)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[2] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), RunConfig{Config: cfg, BlockSize: 3, Shard: Shard{0, 1}, JournalPath: path}); err == nil {
		t.Fatal("corrupt header should be a hard error")
	}
}

// TestJournalTornBeforeNewline cuts only the final '\n' of a paused
// shard's journal: a record torn just before its terminator. Resume
// must report and heal it, re-running that one unit, rather than
// accept the line and glue its next append onto it — the following
// open would then truncate both lines and everything appended after.
func TestJournalTornBeforeNewline(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := testConfig(t, 4, 3, 2, 11)
	want, err := backtest.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "s.journal")
	rc := RunConfig{Config: cfg, BlockSize: 3, Shard: Shard{0, 1}, JournalPath: path, Limit: 3}
	if st, err := Run(context.Background(), rc); err != nil || !st.Paused {
		t.Fatalf("budgeted run: paused=%v err=%v", st != nil && st.Paused, err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-1); err != nil {
		t.Fatal(err)
	}

	rc.Limit = 0
	st, err := Run(context.Background(), rc)
	if err != nil {
		t.Fatal(err)
	}
	if st.Recovered == nil {
		t.Fatal("a record torn before its '\\n' was accepted as intact")
	}
	if st.UnitsSkipped != 2 || st.UnitsExecuted != st.UnitsTotal-2 {
		t.Fatalf("resume skipped %d and executed %d of %d units, want 2 and the rest",
			st.UnitsSkipped, st.UnitsExecuted, st.UnitsTotal)
	}
	got, _, err := MergeFiles([]string{path})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, want, got, "torn-newline resume")

	// The healed journal reopens clean and complete.
	st, err = Run(context.Background(), rc)
	if err != nil {
		t.Fatal(err)
	}
	if st.Recovered != nil || st.UnitsExecuted != 0 {
		t.Fatalf("second resume: recovered=%v executed=%d, want nil and 0", st.Recovered, st.UnitsExecuted)
	}
}

// TestJournalTornHeaderRewritten cuts the '\n' of a journal that holds
// only its header. Open must heal the file back to empty and rewrite
// the header, so appends land on a fresh line instead of corrupting the
// header for every later open.
func TestJournalTornHeaderRewritten(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.journal")
	h := Header{Schema: JournalSchema, Fingerprint: "fp", ShardCount: 1, UnitsTotal: 4}
	j, _, _, err := OpenJournal(path, h)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-1); err != nil {
		t.Fatal(err)
	}

	j, done, corrupt, err := OpenJournal(path, h)
	if err != nil {
		t.Fatal(err)
	}
	if corrupt == nil || len(done) != 0 {
		t.Fatalf("torn header: corrupt=%v done=%v, want a report and no units", corrupt, done)
	}
	if err := j.Append(Entry{U: 2}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	d, err := readJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if d.Corrupt != nil || len(d.Entries) != 1 || d.Entries[0].U != 2 {
		t.Fatalf("after heal+append: corrupt=%v entries=%v, want unit 2 only", d.Corrupt, d.Entries)
	}
}
