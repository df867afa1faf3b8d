package supervise

import (
	"os"
	"path/filepath"
	"testing"
)

func TestQuarantinePersistsAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "quarantine.jsonl")
	q, err := OpenQuarantine(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Record("corr", "quote-17", "panic: NaN mid"); err != nil {
		t.Fatal(err)
	}
	if err := q.Record("corr", "quote-42", "panic: bad index"); err != nil {
		t.Fatal(err)
	}
	if err := q.Record("corr", "quote-17", "duplicate record is a no-op"); err != nil {
		t.Fatal(err)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}

	q2, err := OpenQuarantine(path)
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	if q2.Len() != 2 {
		t.Fatalf("reloaded %d records, want 2", q2.Len())
	}
	if !q2.Seen("quote-17") || !q2.Seen("quote-42") || q2.Seen("quote-99") {
		t.Errorf("seen set wrong after reload")
	}
	recs := q2.Records()
	if recs[0].Reason != "panic: NaN mid" {
		t.Errorf("first record overwritten by duplicate: %+v", recs[0])
	}
	if q2.Healed() {
		t.Error("clean file reported healed")
	}
}

func TestQuarantineHealsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "quarantine.jsonl")
	q, err := OpenQuarantine(path)
	if err != nil {
		t.Fatal(err)
	}
	q.Record("s", "a", "r1")
	q.Record("s", "b", "r2")
	q.Close()

	// Simulate a crash mid-append: garbage trailing bytes.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"crc":123,"r":{"stage":"s","key`)
	f.Close()

	q2, err := OpenQuarantine(path)
	if err != nil {
		t.Fatal(err)
	}
	if !q2.Healed() {
		t.Error("torn tail not reported as healed")
	}
	if q2.Len() != 2 || !q2.Seen("a") || !q2.Seen("b") {
		t.Fatalf("intact records lost: len=%d", q2.Len())
	}
	// The healed journal must accept new appends and reload cleanly.
	if err := q2.Record("s", "c", "r3"); err != nil {
		t.Fatal(err)
	}
	q2.Close()
	q3, err := OpenQuarantine(path)
	if err != nil {
		t.Fatal(err)
	}
	defer q3.Close()
	if q3.Len() != 3 || q3.Healed() {
		t.Errorf("after heal+append: len=%d healed=%v, want 3/false", q3.Len(), q3.Healed())
	}
}

// TestQuarantineHealsRecordTornBeforeNewline cuts only the final '\n':
// the last record is whole but its write never finished. Open must
// heal it away rather than accept it, or the next append glues onto
// it and the open after that truncates both lines and every record
// appended since.
func TestQuarantineHealsRecordTornBeforeNewline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "quarantine.jsonl")
	q, err := OpenQuarantine(path)
	if err != nil {
		t.Fatal(err)
	}
	q.Record("s", "a", "r1")
	q.Record("s", "b", "r2")
	q.Close()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-1); err != nil {
		t.Fatal(err)
	}

	q2, err := OpenQuarantine(path)
	if err != nil {
		t.Fatal(err)
	}
	if !q2.Healed() || q2.Len() != 1 || !q2.Seen("a") {
		t.Fatalf("torn record: healed=%v len=%d, want the intact record a only", q2.Healed(), q2.Len())
	}
	for _, k := range []string{"b", "c"} {
		if err := q2.Record("s", k, "again"); err != nil {
			t.Fatal(err)
		}
	}
	q2.Close()
	q3, err := OpenQuarantine(path)
	if err != nil {
		t.Fatal(err)
	}
	defer q3.Close()
	if q3.Healed() || q3.Len() != 3 || !q3.Seen("a") || !q3.Seen("b") || !q3.Seen("c") {
		t.Errorf("after heal+append: healed=%v records=%v, want a, b, c intact", q3.Healed(), q3.Records())
	}
}

func TestQuarantineRejectsBitFlippedLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "quarantine.jsonl")
	q, _ := OpenQuarantine(path)
	q.Record("s", "a", "r1")
	q.Record("s", "b", "r2")
	q.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the *second* record's payload.
	lines := 0
	for i, c := range raw {
		if c == '\n' {
			lines++
			if lines == 1 {
				raw[i+12] ^= 0x01
				break
			}
		}
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	q2, err := OpenQuarantine(path)
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	if !q2.Healed() || q2.Len() != 1 || !q2.Seen("a") {
		t.Errorf("bit flip handling: healed=%v len=%d", q2.Healed(), q2.Len())
	}
}

func TestQuarantineMemoryOnly(t *testing.T) {
	q, err := OpenQuarantine("")
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Record("s", "k", "r"); err != nil {
		t.Fatal(err)
	}
	if !q.Seen("k") || q.Len() != 1 {
		t.Error("memory-only quarantine not recording")
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
}
