package supervise

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// quarantineFile journals keys through the real writer and returns the
// file bytes, so fuzz seeds start from well-formed journals.
func quarantineFile(f *testing.F, keys ...string) []byte {
	f.Helper()
	path := filepath.Join(f.TempDir(), "seed.jsonl")
	q, err := OpenQuarantine(path)
	if err != nil {
		f.Fatal(err)
	}
	for _, k := range keys {
		if err := q.Record("s", k, "r-"+k); err != nil {
			f.Fatal(err)
		}
	}
	if err := q.Close(); err != nil {
		f.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return b
}

// FuzzOpenQuarantine opens arbitrary bytes as a quarantine journal,
// appends, and reopens. Opening must never panic or fail, and the
// reopen must see exactly what the first open held plus every record
// appended after it: tail healing may drop damaged bytes, never a
// record a later append depended on.
func FuzzOpenQuarantine(f *testing.F) {
	clean := quarantineFile(f, "a", "b")
	f.Add(clean)
	f.Add([]byte{})
	f.Add(append(append([]byte(nil), clean...), `{"crc":123,"r":{"stage":"s","key`...)) // torn tail
	flipped := append([]byte(nil), clean...)
	flipped[strings.IndexByte(string(clean), '\n')+12] ^= 0x01 // bit flip in the second record
	f.Add(flipped)
	f.Add(clean[:len(clean)-1])                                    // torn before the final '\n'
	f.Add([]byte(strings.ReplaceAll(string(clean), "\n", "\r\n"))) // CRLF line ends
	f.Add([]byte("not json at all\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "q.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		q, err := OpenQuarantine(path)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		for _, k := range []string{"fuzz-appended-1", "fuzz-appended-2"} {
			if err := q.Record("fuzz", k, "appended after open"); err != nil {
				t.Fatal(err)
			}
		}
		want := q.Records()
		if err := q.Close(); err != nil {
			t.Fatal(err)
		}

		q2, err := OpenQuarantine(path)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer q2.Close()
		if got := q2.Records(); !reflect.DeepEqual(got, want) {
			t.Fatalf("reopen lost records:\n got  %v\n want %v", got, want)
		}
		if q2.Healed() {
			t.Fatal("a journal this package just appended to needed healing on reopen")
		}
	})
}

// FuzzLoadSnapshot feeds arbitrary bytes to LoadSnapshot and round-
// trips a fuzzed payload through SaveSnapshot. Loading must never panic
// and may fail only with *SnapshotCorruptError; a file it accepts must
// re-save and reload to the same value; and a payload JSON can carry
// (finite floats, valid UTF-8) must come back bit for bit.
func FuzzLoadSnapshot(f *testing.F) {
	dir := f.TempDir()
	seed := filepath.Join(dir, "seed.snap")
	if err := SaveSnapshot(seed, "cfg", fakeState{Cursor: 7, Values: []float64{1.5, -2.25, 1e-300}, Comment: "mid-day"}); err != nil {
		f.Fatal(err)
	}
	clean, err := os.ReadFile(seed)
	if err != nil {
		f.Fatal(err)
	}
	flipped := append([]byte(nil), clean...)
	flipped[len(flipped)/2] ^= 0x01
	for _, b := range [][]byte{clean, clean[:len(clean)/2], flipped, []byte("not json at all\n"), nil} {
		f.Add(b, 42, "mid-day", math.Float64bits(1e-300))
	}
	f.Add(clean, -1, "", math.Float64bits(math.Copysign(0, -1)))
	f.Add(clean, 0, "\xff", math.Float64bits(math.NaN()))

	f.Fuzz(func(t *testing.T, file []byte, cursor int, comment string, bits uint64) {
		path := filepath.Join(t.TempDir(), "state.snap")
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		var loaded fakeState
		err := LoadSnapshot(path, "cfg", &loaded)
		var ce *SnapshotCorruptError
		if err != nil && !errors.As(err, &ce) {
			t.Fatalf("LoadSnapshot error %T %v, want *SnapshotCorruptError", err, err)
		}
		if err == nil {
			roundTripSnapshot(t, path, loaded)
		}

		v := math.Float64frombits(bits)
		in := fakeState{Cursor: cursor, Values: []float64{v}, Comment: strings.ToValidUTF8(comment, "�")}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			if err := SaveSnapshot(path, "cfg", in); err == nil {
				t.Fatalf("SaveSnapshot accepted the non-finite value %v", v)
			}
			return
		}
		roundTripSnapshot(t, path, in)
	})
}

// roundTripSnapshot saves in, loads it back and demands bit-identity.
func roundTripSnapshot(t *testing.T, path string, in fakeState) {
	t.Helper()
	if err := SaveSnapshot(path, "cfg", in); err != nil {
		t.Fatalf("SaveSnapshot(%+v): %v", in, err)
	}
	var out fakeState
	if err := LoadSnapshot(path, "cfg", &out); err != nil {
		t.Fatalf("LoadSnapshot after SaveSnapshot: %v", err)
	}
	if out.Cursor != in.Cursor || out.Comment != in.Comment || len(out.Values) != len(in.Values) {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
	for i := range in.Values {
		if math.Float64bits(out.Values[i]) != math.Float64bits(in.Values[i]) {
			t.Fatalf("round trip value %d: got %v, want %v", i, out.Values[i], in.Values[i])
		}
	}
}
