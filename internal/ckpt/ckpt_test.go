package ckpt

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func tempLog(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "run.wal")
}

func TestCommitAndReload(t *testing.T) {
	path := tempLog(t)
	l, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	stages := []struct {
		stage   string
		payload string
	}{
		{StageMeta, `{"program":"cmm"}`},
		{StageAlloc, `{"p":[1,2,4]}`},
		{StageSched, `{"entries":[]}`},
	}
	for _, s := range stages {
		if err := l.Commit(s.stage, []byte(s.payload)); err != nil {
			t.Fatalf("commit %s: %v", s.stage, err)
		}
	}

	re, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != len(stages) {
		t.Fatalf("reloaded %d records, want %d", re.Len(), len(stages))
	}
	for i, s := range stages {
		data, seq, ok := re.Lookup(s.stage)
		if !ok {
			t.Fatalf("stage %s missing after reload", s.stage)
		}
		if seq != i {
			t.Fatalf("stage %s seq = %d, want %d", s.stage, seq, i)
		}
		if string(data) != s.payload {
			t.Fatalf("stage %s payload = %q, want %q", s.stage, data, s.payload)
		}
	}
}

func TestLookupReturnsLatestCommit(t *testing.T) {
	l, err := Create(tempLog(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"first", "second", "third"} {
		if err := l.Commit(StageSalvage, []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	data, seq, ok := l.Lookup(StageSalvage)
	if !ok || string(data) != "third" || seq != 2 {
		t.Fatalf("Lookup = (%q, %d, %v), want (third, 2, true)", data, seq, ok)
	}
	if got := l.Stages(); len(got) != 3 {
		t.Fatalf("Stages() = %v, want 3 entries", got)
	}
}

func TestOpenCreatesThenResumes(t *testing.T) {
	path := tempLog(t)
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if l.Len() != 0 {
		t.Fatalf("fresh log has %d records", l.Len())
	}
	if err := l.Commit(StageMeta, []byte("x")); err != nil {
		t.Fatal(err)
	}
	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 1 {
		t.Fatalf("reopened log has %d records, want 1", re.Len())
	}
}

func TestLoadMissingFile(t *testing.T) {
	_, err := Load(filepath.Join(t.TempDir(), "absent.wal"))
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Load missing = %v, want os.ErrNotExist", err)
	}
}

func TestCreateTruncatesExisting(t *testing.T) {
	path := tempLog(t)
	l, _ := Create(path)
	if err := l.Commit(StageMeta, []byte("old")); err != nil {
		t.Fatal(err)
	}
	fresh, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Len() != 0 {
		t.Fatalf("Create left %d records", fresh.Len())
	}
	re, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 0 {
		t.Fatalf("truncated log reloads %d records", re.Len())
	}
}

// Truncation anywhere in the file must fail with ErrCorrupt — a torn
// log is refused, never resumed from a prefix silently.
func TestTruncationIsCorrupt(t *testing.T) {
	path := tempLog(t)
	l, _ := Create(path)
	for _, s := range []string{StageMeta, StageAlloc, StageSched} {
		if err := l.Commit(s, []byte(`{"some":"payload for `+s+`"}`)); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := len(data) - 1; cut > len(Magic)+4; cut -= 7 {
		if _, err := Decode(data[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Decode(truncated at %d) = %v, want ErrCorrupt", cut, err)
		}
	}
}

// Any single bit flip in a payload must fail the CRC.
func TestBitFlipIsCorrupt(t *testing.T) {
	path := tempLog(t)
	l, _ := Create(path)
	if err := l.Commit(StageAlloc, []byte(`{"p":[1,2,4,8]}`)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a bit inside the payload region (last byte of the file).
	data[len(data)-1] ^= 0x40
	if _, err := Decode(data); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Decode(bit-flipped) = %v, want ErrCorrupt", err)
	}
}

func TestBadMagicAndVersion(t *testing.T) {
	if _, err := Decode([]byte("NOTAWAL!....")); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic = %v, want ErrCorrupt", err)
	}
	img := Encode(nil)
	img[len(Magic)] = 99 // version field
	if _, err := Decode(img); !errors.Is(err, ErrVersion) {
		t.Fatalf("bad version = %v, want ErrVersion", err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	recs := []Record{
		{Stage: "meta", Seq: 0, Payload: []byte("abc")},
		{Stage: "alloc", Seq: 1, Payload: nil},
		{Stage: "salvage-1", Seq: 2, Payload: make([]byte, 1000)},
	}
	got, err := Decode(Encode(recs))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("round trip lost records: %d != %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].Stage != recs[i].Stage || got[i].Seq != i || len(got[i].Payload) != len(recs[i].Payload) {
			t.Fatalf("record %d round-tripped as %+v", i, got[i])
		}
	}
}

func TestOnCommitHookOrder(t *testing.T) {
	l, _ := Create(tempLog(t))
	var seen []string
	l.OnCommit(func(stage string, seq int) {
		// The record must already be durable when the hook runs: a
		// reload from disk sees it.
		re, err := Load(l.Path())
		if err != nil {
			t.Errorf("reload inside hook: %v", err)
		}
		if _, _, ok := re.Lookup(stage); !ok {
			t.Errorf("stage %s not durable when hook ran", stage)
		}
		seen = append(seen, stage)
	})
	for _, s := range []string{StageMeta, StageAlloc} {
		if err := l.Commit(s, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) != 2 || seen[0] != StageMeta || seen[1] != StageAlloc {
		t.Fatalf("hook order = %v", seen)
	}
}

func TestCommitRollsBackOnFlushFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.wal")
	l, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	// Remove the directory out from under the log: the commit's lazy
	// open must fail, leaving the in-memory view at the previous state.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(StageMeta, []byte("x")); err == nil {
		t.Fatal("Commit into a removed directory succeeded")
	}
	if l.Len() != 0 {
		t.Fatalf("failed commit left %d in-memory records", l.Len())
	}
	if _, _, ok := l.Lookup(StageMeta); ok {
		t.Fatal("failed commit still visible via Lookup")
	}
}

// Close releases the write handle but does not retire the log: the next
// Commit reopens the file and appends after the committed region.
func TestCloseThenCommitReopens(t *testing.T) {
	path := tempLog(t)
	l, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(StageMeta, []byte("m")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(StageAlloc, []byte("a")); err != nil {
		t.Fatalf("Commit after Close: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := re.Stages(); len(got) != 2 || got[0] != StageMeta || got[1] != StageAlloc {
		t.Fatalf("reloaded stages = %v", got)
	}
}

// A torn append — record bytes written but the commit pointer not yet
// updated — must reload as the previous committed state, and the next
// commit must overwrite the torn tail.
func TestTornAppendIsIgnored(t *testing.T) {
	path := tempLog(t)
	l, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(StageMeta, []byte("m")); err != nil {
		t.Fatal(err)
	}
	// Simulate a kill between the record append and the pointer write.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{5, 0, 0, 0, 's'}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re, err := Load(path)
	if err != nil {
		t.Fatalf("Load with torn tail: %v", err)
	}
	if got := re.Stages(); len(got) != 1 || got[0] != StageMeta {
		t.Fatalf("stages with torn tail = %v", got)
	}
	if err := re.Commit(StageAlloc, []byte("a")); err != nil {
		t.Fatal(err)
	}
	again, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := again.Stages(); len(got) != 2 || got[1] != StageAlloc {
		t.Fatalf("stages after overwrite = %v", got)
	}
}

// Full-sync mode must keep the same on-disk format and reload behavior;
// it only changes durability (fsync), which is not observable here
// beyond commits still succeeding.
func TestFullSyncCommitAndReload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.wal")
	l, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	l.SetFullSync(true)
	if err := l.Commit(StageMeta, []byte("meta")); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(StageAlloc, []byte("alloc")); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("reloaded %d records, want 2", got.Len())
	}
	payload, seq, ok := got.Lookup(StageAlloc)
	if !ok || seq != 1 || string(payload) != "alloc" {
		t.Fatalf("Lookup(alloc) = %q, %d, %v", payload, seq, ok)
	}
}

// A deferred log is nowhere on disk — no file, no temp file — and has
// encoded nothing until Materialize; it then holds, byte for byte, what
// an eager log given the same commits holds, later commits included, and
// a Load of it resumes the same records.
func TestDeferredLogMaterializesLikeEager(t *testing.T) {
	dir := t.TempDir()
	commits := []struct{ stage, payload string }{
		{StageMeta, `{"program":"cmm"}`},
		{StageAlloc, `{"p":[1,2,4]}`},
		{StageSched, `{"entries":[]}`},
		{StageDone, `{"makespan":3}`},
	}
	const buffered = 2 // commits accepted before Materialize

	eager, err := Create(filepath.Join(dir, "eager.wal"))
	if err != nil {
		t.Fatal(err)
	}
	lazyPath := filepath.Join(dir, "lazy.wal")
	lazy, err := OpenDeferred(lazyPath)
	if err != nil {
		t.Fatal(err)
	}
	var hooked []string
	lazy.OnCommit(func(stage string, seq int) { hooked = append(hooked, stage) })
	encoded := 0
	for i, c := range commits {
		if i == buffered {
			if lazy.Len() != 0 || len(lazy.Stages()) != 0 || encoded != 0 || len(hooked) != 0 {
				t.Fatalf("deferred log reports %d records, %d encodes, hooks %v before Materialize", lazy.Len(), encoded, hooked)
			}
			if _, _, ok := lazy.Lookup(StageMeta); ok {
				t.Fatal("a buffered stage is visible to Lookup")
			}
			if names := dirNames(t, dir); len(names) != 1 || names[0] != "eager.wal" {
				t.Fatalf("deferred log touched the directory: %v", names)
			}
			if err := lazy.Materialize(); err != nil {
				t.Fatal(err)
			}
			if encoded != buffered || len(hooked) != buffered || hooked[0] != StageMeta || hooked[1] != StageAlloc {
				t.Fatalf("Materialize ran %d encodes, hooks %v", encoded, hooked)
			}
		}
		if err := eager.Commit(c.stage, []byte(c.payload)); err != nil {
			t.Fatal(err)
		}
		if err := lazy.CommitFunc(c.stage, func() ([]byte, error) { encoded++; return []byte(c.payload), nil }); err != nil {
			t.Fatal(err)
		}
	}
	if err := lazy.Materialize(); err != nil { // a second one is a no-op
		t.Fatal(err)
	}
	if err := eager.Close(); err != nil {
		t.Fatal(err)
	}
	if err := lazy.Close(); err != nil {
		t.Fatal(err)
	}
	if names := dirNames(t, dir); len(names) != 2 {
		t.Fatalf("directory holds %v, want the two logs and no temp file", names)
	}
	want, err := os.ReadFile(eager.Path())
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(lazyPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("materialized log differs from the eager one:\n%q\n%q", got, want)
	}
	re, err := OpenDeferred(lazyPath)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != len(commits) {
		t.Fatalf("reopened materialized log has %d records, want %d", re.Len(), len(commits))
	}
	for i, c := range commits {
		if data, seq, ok := re.Lookup(c.stage); !ok || seq != i || string(data) != c.payload {
			t.Fatalf("resumed %s = %q seq %d ok %v", c.stage, data, seq, ok)
		}
	}
}

// A deferred log that never materializes leaves nothing behind, and one
// whose encode fails stays deferred with its buffer intact.
func TestDeferredLogWithoutMaterialize(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenDeferred(filepath.Join(dir, "job.wal"))
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	fail := true
	if err := l.CommitFunc(StageMeta, func() ([]byte, error) {
		if fail {
			return nil, boom
		}
		return []byte("m"), nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := l.Materialize(); !errors.Is(err, boom) {
		t.Fatalf("Materialize = %v, want the encode error", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if names := dirNames(t, dir); len(names) != 0 {
		t.Fatalf("unmaterialized log left %v", names)
	}
	fail = false
	if err := l.Materialize(); err != nil {
		t.Fatal(err)
	}
	if data, _, ok := l.Lookup(StageMeta); !ok || string(data) != "m" {
		t.Fatalf("buffer lost across the failed Materialize: %q %v", data, ok)
	}
}

func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names
}
