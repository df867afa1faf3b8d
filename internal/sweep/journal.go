package sweep

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sync"

	"marketminer/internal/strategy"
)

// JournalSchema versions the on-disk journal format.
const JournalSchema = "marketminer/sweep-journal/v1"

// syncEvery bounds how many appended units may be buffered in the OS
// page cache before an fsync; a hard power loss can cost at most this
// many units of re-execution (a clean kill costs none).
const syncEvery = 64

// Header is the first line of a journal file. It binds the file to one
// sweep configuration (Fingerprint) and one shard assignment, and
// carries enough of the decomposition — symbols, calendar, grid, block
// size — for MergeFiles to rebuild the full Result without access to
// the original configuration.
type Header struct {
	Schema      string            `json:"schema"`
	Fingerprint string            `json:"fingerprint"`
	ShardIndex  int               `json:"shard"`
	ShardCount  int               `json:"of"`
	BlockSize   int               `json:"block_size"`
	Symbols     []string          `json:"symbols"`
	Days        int               `json:"days"`
	Levels      []strategy.Params `json:"levels"`
	Types       []string          `json:"types"`
	UnitsTotal  int               `json:"units_total"`
}

// Entry is one completed unit: the unit id and, for every pair of the
// unit's block (ascending canonical id), that pair's per-trade returns
// for the unit's (day, parameter set).
type Entry struct {
	U    int         `json:"u"`
	Rets [][]float64 `json:"rets"`
}

// journalLine is the envelope around each entry: the CRC32 (IEEE) of
// the raw entry JSON. A line that is truncated mid-write fails to
// parse; a line whose bytes were damaged fails the checksum; a line
// torn just before its '\n' lacks the terminator (an append would glue
// onto it); all are reported as a Corruption and healed by truncating
// back to the last intact entry.
type journalLine struct {
	CRC uint32          `json:"crc"`
	E   json.RawMessage `json:"e"`
}

// Corruption describes a damaged journal tail: where the first bad
// line starts and why it was rejected. Everything before Offset is
// intact and trusted; everything from Offset on is discarded, and the
// units it held are simply re-run.
type Corruption struct {
	Path   string
	Offset int64 // byte offset of the first damaged line
	Line   int   // 1-based line number of the first damaged line
	Units  int   // intact units kept before the damage
	Reason string
}

// String renders the corruption for logs: where the damage was found
// and how many completed units it cost.
func (c *Corruption) String() string {
	return fmt.Sprintf("%s: corrupt entry at line %d (byte %d): %s; %d intact units kept",
		c.Path, c.Line, c.Offset, c.Reason, c.Units)
}

// journalData is a fully-read journal file.
type journalData struct {
	Header  Header
	Entries []Entry
	// Corrupt is non-nil when the tail was damaged; Entries then holds
	// only the intact prefix and CleanSize is its byte length.
	Corrupt   *Corruption
	CleanSize int64
}

// maxJournalLine bounds one journal line: a paper-scale unit is one
// block of ≤ blockSize pairs' trade returns, far below this.
const maxJournalLine = 64 << 20

// readJournal parses a journal file, verifying every entry checksum.
// It returns an error only for damage that cannot be healed by
// truncation (unreadable file, bad header); entry-level damage comes
// back as journalData.Corrupt.
func readJournal(path string) (*journalData, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), maxJournalLine)
	sc.Split(scanRecords)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("sweep: %s: read header: %w", path, err)
		}
		return nil, fmt.Errorf("sweep: %s: journal is empty (no header)", path)
	}
	var h Header
	if err := json.Unmarshal(sc.Bytes(), &h); err != nil {
		return nil, fmt.Errorf("sweep: %s: corrupt journal header: %w (delete the file to restart this shard)", path, err)
	}
	if h.Schema != JournalSchema {
		return nil, fmt.Errorf("sweep: %s: journal schema %q, want %q", path, h.Schema, JournalSchema)
	}
	d := &journalData{Header: h, CleanSize: int64(len(sc.Bytes()))}
	line := 1
	if sc.Bytes()[len(sc.Bytes())-1] != '\n' {
		// The header itself was torn before its '\n': heal to empty so
		// OpenJournal rewrites it.
		d.CleanSize = 0
		d.Corrupt = &Corruption{Path: path, Line: line, Reason: unterminated}
		return d, nil
	}

	for sc.Scan() {
		line++
		raw := sc.Bytes()
		corrupt := func(reason string) {
			d.Corrupt = &Corruption{Path: path, Offset: d.CleanSize, Line: line, Units: len(d.Entries), Reason: reason}
		}
		if raw[len(raw)-1] != '\n' {
			corrupt(unterminated)
			return d, nil
		}
		var jl journalLine
		if err := json.Unmarshal(raw, &jl); err != nil || jl.E == nil {
			corrupt("unparseable line (truncated write?)")
			return d, nil
		}
		if got := crc32.ChecksumIEEE(jl.E); got != jl.CRC {
			corrupt(fmt.Sprintf("checksum mismatch (stored %08x, computed %08x)", jl.CRC, got))
			return d, nil
		}
		var e Entry
		if err := json.Unmarshal(jl.E, &e); err != nil {
			corrupt("unparseable entry payload")
			return d, nil
		}
		if e.U < 0 || e.U >= h.UnitsTotal {
			corrupt(fmt.Sprintf("unit id %d outside [0, %d)", e.U, h.UnitsTotal))
			return d, nil
		}
		d.Entries = append(d.Entries, e)
		d.CleanSize += int64(len(raw))
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			d.Corrupt = &Corruption{Path: path, Offset: d.CleanSize, Line: line + 1, Units: len(d.Entries), Reason: "oversized line"}
			return d, nil
		}
		return nil, fmt.Errorf("sweep: %s: read: %w", path, err)
	}
	return d, nil
}

// unterminated is the Corruption reason for a line torn before its '\n'.
const unterminated = "line torn before its terminator"

// scanRecords is bufio.ScanLines without the CR stripping and with the
// '\n' kept: token lengths sum to exact file offsets, and a final token
// that does not end in '\n' is a line torn before its terminator.
func scanRecords(data []byte, atEOF bool) (int, []byte, error) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return i + 1, data[:i+1], nil
	}
	if atEOF && len(data) > 0 {
		return len(data), data, nil
	}
	return 0, nil, nil
}

// Journal is an append-only checkpoint log opened for writing by one
// shard process. Append is safe for concurrent use by the runner's
// workers.
type Journal struct {
	mu        sync.Mutex
	path      string
	f         *os.File
	w         *bufio.Writer
	sinceSync int
}

// OpenJournal opens (or creates) the journal at path for the sweep and
// shard described by h. For an existing file it verifies the header
// matches (same fingerprint, same shard), heals a damaged tail by
// truncating to the last intact entry, and returns the per-unit trade
// counts of every intact entry so the runner can skip completed work.
// The returned Corruption (nil when the file was clean) reports what
// was healed.
func OpenJournal(path string, h Header) (*Journal, map[int]int, *Corruption, error) {
	done := map[int]int{}
	var corrupt *Corruption

	if fi, err := os.Stat(path); err == nil && fi.Size() > 0 {
		d, err := readJournal(path)
		if err != nil {
			return nil, nil, nil, err
		}
		if d.Header.Fingerprint != h.Fingerprint {
			return nil, nil, nil, fmt.Errorf("sweep: %s: journal fingerprint %s does not match this configuration (%s) — it records a different sweep",
				path, d.Header.Fingerprint, h.Fingerprint)
		}
		if d.Header.ShardIndex != h.ShardIndex || d.Header.ShardCount != h.ShardCount {
			return nil, nil, nil, fmt.Errorf("sweep: %s: journal belongs to shard %d/%d, not %d/%d",
				path, d.Header.ShardIndex, d.Header.ShardCount, h.ShardIndex, h.ShardCount)
		}
		for _, e := range d.Entries {
			var n int
			for _, r := range e.Rets {
				n += len(r)
			}
			done[e.U] = n
		}
		corrupt = d.Corrupt
		if corrupt != nil {
			// Recovery: drop the damaged tail so the re-run of its
			// units appends to an intact file.
			if err := os.Truncate(path, d.CleanSize); err != nil {
				return nil, nil, nil, fmt.Errorf("sweep: heal %s: %w", path, err)
			}
		}
		if d.CleanSize > 0 {
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return nil, nil, nil, err
			}
			return &Journal{path: path, f: f, w: bufio.NewWriter(f)}, done, corrupt, nil
		}
	}

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, nil, nil, err
	}
	j := &Journal{path: path, f: f, w: bufio.NewWriter(f)}
	hb, err := json.Marshal(h)
	if err != nil {
		f.Close()
		return nil, nil, nil, err
	}
	if _, err := j.w.Write(append(hb, '\n')); err != nil {
		f.Close()
		return nil, nil, nil, err
	}
	if err := j.w.Flush(); err != nil {
		f.Close()
		return nil, nil, nil, err
	}
	return j, done, corrupt, nil
}

// Append writes one completed unit and flushes it to the OS; every
// syncEvery appends it also fsyncs, bounding what a power loss can
// undo.
func (j *Journal) Append(e Entry) error {
	payload, err := json.Marshal(e)
	if err != nil {
		return err
	}
	line, err := json.Marshal(journalLine{CRC: crc32.ChecksumIEEE(payload), E: payload})
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.w.Write(append(line, '\n')); err != nil {
		return err
	}
	if err := j.w.Flush(); err != nil {
		return err
	}
	j.sinceSync++
	if j.sinceSync >= syncEvery {
		j.sinceSync = 0
		return j.f.Sync()
	}
	return nil
}

// Close flushes, fsyncs and closes the journal.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.w.Flush(); err != nil {
		j.f.Close()
		return err
	}
	if err := j.f.Sync(); err != nil {
		j.f.Close()
		return err
	}
	return j.f.Close()
}
