// Package ckpt is the crash-safety layer of the pipeline: a versioned,
// CRC-checked write-ahead checkpoint log that snapshots stage boundaries
// (calibration fit, allocation vector, PSA schedule, salvage state) so a
// killed run can resume from the last committed stage bit-identically.
//
// Durability model. The log is a single file created atomically
// (write-to-temp + rename, so the path never holds a torn header). Each
// Commit then appends the new record with one positioned write and
// publishes it with a second 8-byte write that updates the header's
// committed-length/CRC pointer in place. The pointer update is smaller
// than a page, so under process death (SIGKILL, panic, OOM) it either
// lands completely or not at all: a run killed mid-commit loses at most
// the record being committed, and any torn bytes past the committed
// pointer are discarded on load. Page-cache writes survive process
// death without fsync, so this rename-on-create / pointer-publish
// scheme is crash-safe for the pipeline's crash model (process loss) at
// two small writes per commit. SetFullSync(true) additionally fsyncs
// the data before the pointer write and the pointer after it — the
// classic WAL ordering — extending the guarantee to kernel crashes and
// power loss at roughly a millisecond per commit on ext4.
//
// Deferred logs. A log opened with OpenDeferred over a path that does
// not exist yet buffers its commits as (stage, encode closure) pairs and
// neither encodes a payload nor touches the filesystem until Materialize
// — which the pipeline calls from the first stage worth logging: a
// fitted calibration, a solved allocation, a salvage — encodes the
// buffered stages in commit order and publishes the whole image by the
// same temp + rename that creates an eager log. From then on it is an
// ordinary log. A run whose every stage was a cache replay therefore
// never creates a file: with no log it replays from scratch, to the same
// result, in less time than logging it took. Create and Open are the
// deferred log materialized at once.
//
// Integrity model. The file opens with an 8-byte magic, a format
// version, and the committed-region pointer (byte length + CRC-32 of
// the whole committed region); each record additionally carries a
// CRC-32 (IEEE) of its payload. Any truncation, bit flip, or garbage
// inside the committed region fails Decode with ErrCorrupt — a corrupt
// log is refused loudly, never resumed silently. Bytes beyond the
// committed pointer are uncommitted leftovers of an interrupted append
// and are ignored. Decode is a total function over arbitrary bytes (it
// is the fuzz target in fuzz_test.go) and never panics or
// over-allocates: declared lengths are validated against the bytes
// actually present before any allocation.
//
// Record semantics. Records are append-only and stage-named. Lookup
// returns the latest record for a stage, so a stage may be re-committed
// (recovery attempts commit one salvage record per attempt). Payloads
// are opaque bytes to this layer; codec.go defines the JSON stage
// payloads the pipeline uses. JSON is safe for bit-identical resume
// because Go marshals float64 in shortest-round-trip form: decode(
// encode(x)) == x exactly.
package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// Canonical stage names committed by the pipeline, in commit order.
// Salvage records append "-<attempt>" to StageSalvage.
const (
	StageMeta      = "meta"
	StageCalibrate = "calibrate"
	StageAlloc     = "alloc"
	StageSched     = "sched"
	StageSalvage   = "salvage"
	StageDone      = "done"
)

// Typed sentinels. Callers dispatch with errors.Is; the chaos tests
// assert that a damaged log surfaces ErrCorrupt rather than resuming.
var (
	// ErrCorrupt marks a log that fails structural or CRC validation:
	// truncated file, bit flip, bad magic, or an undecodable payload.
	ErrCorrupt = errors.New("ckpt: corrupt checkpoint log")
	// ErrVersion marks a log written by an incompatible format version.
	ErrVersion = errors.New("ckpt: unsupported checkpoint version")
	// ErrMismatch marks a structurally valid log whose contents do not
	// match the job being resumed (different program, machine, or
	// system size) — resuming would silently produce a wrong schedule.
	ErrMismatch = errors.New("ckpt: checkpoint does not match this job")
)

// Magic opens every log file; Version is the current format.
const (
	Magic   = "PDGMWAL1"
	Version = 1
)

// Header layout: magic[8] version[u32] committedLen[u32] prefixCRC[u32].
// committedLen counts record bytes after the header; prefixCRC is the
// CRC-32 of exactly those bytes. The 8-byte (committedLen, prefixCRC)
// pair at ptrOffset is the commit pointer rewritten in place on every
// Commit.
const (
	headerLen = 20
	ptrOffset = 12
)

// Practical bounds on declared lengths: far above anything the pipeline
// writes, low enough that a fuzzed length cannot force a huge allocation
// before the remaining-bytes check.
const (
	maxStageLen   = 256
	maxPayloadLen = 1 << 30
)

// Record is one committed stage snapshot.
type Record struct {
	// Stage names the pipeline boundary ("meta", "alloc", ...).
	Stage string
	// Seq is the record's position in commit order (0-based).
	Seq int
	// Payload is the stage snapshot (JSON for the codec.go stages).
	Payload []byte
}

// Log is an open checkpoint log bound to a file path. A Log is not safe
// for concurrent use; the pipeline commits from a single goroutine.
type Log struct {
	path    string
	records []Record
	byStage map[string]int // stage -> latest record index
	// encoded is the committed on-disk image (header + records): the
	// append offset and commit pointer are derived from it, so Commit
	// never re-encodes or rewrites records already on disk. It is nil
	// while the log is deferred: no file exists, and pending holds the
	// commits accepted so far, payloads not yet encoded.
	encoded []byte
	pending []pendingCommit
	// f is the write handle: the one publish wrote the image through
	// when it materialized the log, or else opened on first Commit. Close
	// releases it; a closed log reopens on the next Commit.
	f *os.File
	// fullSync upgrades commits from process-crash durability (the
	// default) to machine-crash durability (fsync data, then pointer).
	fullSync bool
	// onCommit, if set, runs after each commit's pointer publish has
	// made the record durable — the hook the kill-and-resume chaos
	// test uses to SIGKILL the process at a precise checkpoint
	// boundary.
	onCommit func(stage string, seq int)
}

// pendingCommit is one commit a deferred log has accepted but not
// written: encode runs at Materialize, or never.
type pendingCommit struct {
	stage  string
	encode func() ([]byte, error)
}

// Create starts a fresh log at path, truncating any existing file. The
// empty log (header only) is published atomically (write-to-temp +
// rename) before Create returns. Unlike a deferred log that
// materializes, a created one keeps no handle: its first commit opens the
// file, so a log whose file vanished meanwhile fails that commit instead
// of appending to an unlinked inode.
func Create(path string) (*Log, error) {
	l := &Log{path: path, byStage: map[string]int{}}
	if err := l.Materialize(); err != nil {
		return nil, err
	}
	if err := l.Close(); err != nil {
		return nil, err
	}
	return l, nil
}

// Open resumes the log at path if it exists, or creates a fresh one.
// This is the "checkpoint this run, resuming if a previous attempt was
// killed" entry point.
func Open(path string) (*Log, error) {
	l, err := OpenDeferred(path)
	if err == nil {
		err = l.Materialize()
	}
	if err != nil {
		return nil, err
	}
	return l, nil
}

// OpenDeferred resumes the log at path if it exists; otherwise it
// returns a deferred log, whose file is created by Materialize.
func OpenDeferred(path string) (*Log, error) {
	l, err := Load(path)
	if errors.Is(err, os.ErrNotExist) {
		return &Log{path: path, byStage: map[string]int{}}, nil
	}
	return l, err
}

// Load opens an existing log strictly: a missing file is an error
// (wrapping os.ErrNotExist), as is any corruption.
func Load(path string) (*Log, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	records, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	committed := headerLen + int(binary.LittleEndian.Uint32(data[ptrOffset:]))
	l := &Log{
		path:    path,
		records: records,
		byStage: map[string]int{},
		encoded: append([]byte(nil), data[:committed]...),
	}
	for i, r := range records {
		l.byStage[r.Stage] = i
	}
	return l, nil
}

// Path returns the log's file path.
func (l *Log) Path() string { return l.path }

// Len returns the number of committed records. Commits a deferred log
// has only buffered are not among them, nor visible to Stages, Records
// or Lookup: until Materialize they are durable nowhere. (The pipeline
// looks a stage up only before it commits it, so a run never needs to
// read its own buffer.)
func (l *Log) Len() int { return len(l.records) }

// Stages lists the committed stage names in commit order (duplicates
// kept: a re-committed stage appears once per commit).
func (l *Log) Stages() []string {
	out := make([]string, len(l.records))
	for i, r := range l.records {
		out[i] = r.Stage
	}
	return out
}

// Records returns the committed records in commit order. The slice is a
// copy; payloads are shared. Stage-keyed consumers use Lookup — Records
// serves append-only journals (the service job journal) that replay
// every record, duplicates included.
func (l *Log) Records() []Record {
	return append([]Record(nil), l.records...)
}

// Lookup returns the payload and sequence number of the latest record
// committed for stage.
func (l *Log) Lookup(stage string) (payload []byte, seq int, ok bool) {
	i, ok := l.byStage[stage]
	if !ok {
		return nil, 0, false
	}
	return l.records[i].Payload, l.records[i].Seq, true
}

// OnCommit registers a hook invoked after each commit is durable on
// disk. Chaos tests kill the process from it; services may log from it.
func (l *Log) OnCommit(fn func(stage string, seq int)) { l.onCommit = fn }

// SetFullSync selects the durability mode for subsequent commits. When
// off (the default), a commit is two page-cache writes, which survive
// process death — the pipeline's crash model — at microsecond cost.
// When on, the record append is fsynced before the commit pointer is
// written and the pointer after, so a committed record also survives
// kernel crashes and power loss, at fsync cost per commit.
func (l *Log) SetFullSync(on bool) { l.fullSync = on }

// Close releases the log's write handle. The log remains usable: a
// later Commit reopens the file at the committed offset.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	return nil
}

// Commit appends a stage record and publishes it via the header's
// commit pointer. The in-memory state changes only after the disk
// writes succeed, so a failed commit leaves both views at the previous
// record.
func (l *Log) Commit(stage string, payload []byte) error {
	payload = append([]byte(nil), payload...)
	return l.CommitFunc(stage, func() ([]byte, error) { return payload, nil })
}

// CommitFunc is Commit with the payload still to be encoded: a deferred
// log keeps the closure and runs it at Materialize, if that ever comes;
// a materialized log runs it now. The log owns the bytes it returns.
func (l *Log) CommitFunc(stage string, encode func() ([]byte, error)) error {
	if stage == "" || len(stage) > maxStageLen {
		return fmt.Errorf("ckpt: invalid stage name %q", stage)
	}
	if l.encoded == nil {
		l.pending = append(l.pending, pendingCommit{stage, encode})
		return nil
	}
	payload, err := encode()
	if err != nil {
		return fmt.Errorf("ckpt: encode %s: %w", stage, err)
	}
	rec := encodeRecord(stage, payload)
	// The committed-region CRC extends incrementally over the new record
	// — recomputing it from scratch (setPointer) would rescan the whole
	// log and turn an append-only journal quadratic.
	crc := crc32.Update(currentCRC(l.encoded), crc32.IEEETable, rec)
	if err := l.appendRecord(rec, crc); err != nil {
		return err
	}
	l.encoded = append(l.encoded, rec...)
	binary.LittleEndian.PutUint32(l.encoded[ptrOffset:], uint32(len(l.encoded)-headerLen))
	binary.LittleEndian.PutUint32(l.encoded[ptrOffset+4:], crc)
	l.committed(Record{Stage: stage, Seq: len(l.records), Payload: payload})
	return nil
}

// committed registers a record that has just become durable.
func (l *Log) committed(r Record) {
	l.records = append(l.records, r)
	l.byStage[r.Stage] = r.Seq
	if l.onCommit != nil {
		l.onCommit(r.Stage, r.Seq)
	}
}

// Materialize gives a deferred log its file: the buffered commits are
// encoded in order and the whole image is published atomically, so the
// path goes from absent to holding every stage accepted so far. On a
// log that already has a file it does nothing. A failure leaves the log
// deferred, its buffer intact.
func (l *Log) Materialize() error {
	if l.encoded != nil {
		return nil
	}
	records := make([]Record, len(l.pending))
	for i, p := range l.pending {
		payload, err := p.encode()
		if err != nil {
			return fmt.Errorf("ckpt: encode %s: %w", p.stage, err)
		}
		records[i] = Record{Stage: p.stage, Seq: i, Payload: payload}
	}
	l.encoded = Encode(records)
	if err := l.publish(); err != nil {
		l.encoded = nil
		return err
	}
	l.pending = nil
	for _, r := range records {
		l.committed(r)
	}
	return nil
}

// appendRecord writes rec after the committed region and publishes it
// by rewriting the 8-byte commit pointer in place, with crc the
// committed-region CRC extended over rec. A failure after the record
// write truncates the torn tail (best-effort) and leaves the pointer —
// and therefore every reload — at the previous commit.
func (l *Log) appendRecord(rec []byte, crc uint32) error {
	if l.f == nil {
		f, err := os.OpenFile(l.path, os.O_RDWR, 0o644)
		if err != nil {
			return fmt.Errorf("ckpt: %w", err)
		}
		// Drop uncommitted tail bytes a killed append may have left.
		if err := f.Truncate(int64(len(l.encoded))); err != nil {
			f.Close()
			return fmt.Errorf("ckpt: %w", err)
		}
		l.f = f
	}
	off := int64(len(l.encoded))
	if _, err := l.f.WriteAt(rec, off); err != nil {
		l.f.Truncate(off)
		return fmt.Errorf("ckpt: %w", err)
	}
	if l.fullSync {
		// Data must be durable before the pointer names it.
		if err := l.f.Sync(); err != nil {
			l.f.Truncate(off)
			return fmt.Errorf("ckpt: %w", err)
		}
	}
	var ptr [8]byte
	binary.LittleEndian.PutUint32(ptr[:4], uint32(int(off)-headerLen+len(rec)))
	binary.LittleEndian.PutUint32(ptr[4:], crc)
	if _, err := l.f.WriteAt(ptr[:], ptrOffset); err != nil {
		l.f.Truncate(off)
		return fmt.Errorf("ckpt: %w", err)
	}
	if l.fullSync {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("ckpt: %w", err)
		}
	}
	return nil
}

// publish writes the full in-memory image atomically: temp file in the
// same directory (rename must not cross filesystems), then rename.
// Used to materialize the log; later commits go through appendRecord,
// on the handle publish keeps: the renamed file is the log, and holds
// nothing past the image a reopen would have to truncate.
func (l *Log) publish() error {
	dir := filepath.Dir(l.path)
	tmp, err := os.CreateTemp(dir, filepath.Base(l.path)+".tmp*")
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(l.encoded); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("ckpt: %w", err)
	}
	if l.fullSync {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			os.Remove(tmpName)
			return fmt.Errorf("ckpt: %w", err)
		}
	}
	if err := os.Rename(tmpName, l.path); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("ckpt: %w", err)
	}
	if l.fullSync {
		if err := syncDir(dir); err != nil {
			tmp.Close()
			return err
		}
	}
	l.f = tmp
	return nil
}

// syncDir fsyncs a directory so a just-renamed entry survives power
// loss. Only used in full-sync mode.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	return nil
}

// currentCRC reads the committed-region CRC from an encoded image.
func currentCRC(img []byte) uint32 {
	return binary.LittleEndian.Uint32(img[ptrOffset+4:])
}

// setPointer rewrites an image's commit pointer to cover every byte
// after the header.
func setPointer(img []byte) {
	binary.LittleEndian.PutUint32(img[ptrOffset:], uint32(len(img)-headerLen))
	binary.LittleEndian.PutUint32(img[ptrOffset+4:], crc32.ChecksumIEEE(img[headerLen:]))
}

// encodeRecord serializes one record:
//
//	stageLen[u32] stage payloadLen[u32] crc32(payload)[u32] payload
//
// All integers are little-endian.
func encodeRecord(stage string, payload []byte) []byte {
	out := make([]byte, 0, 4+len(stage)+4+4+len(payload))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(stage)))
	out = append(out, stage...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	out = append(out, payload...)
	return out
}

// Encode serializes records into the on-disk format:
//
//	magic[8] version[u32] committedLen[u32] prefixCRC[u32]
//	repeat: stageLen[u32] stage payloadLen[u32] crc32(payload)[u32] payload
//
// with the commit pointer covering every record.
func Encode(records []Record) []byte {
	size := headerLen
	for _, r := range records {
		size += 4 + len(r.Stage) + 4 + 4 + len(r.Payload)
	}
	out := make([]byte, 0, size)
	out = append(out, Magic...)
	out = binary.LittleEndian.AppendUint32(out, Version)
	out = append(out, 0, 0, 0, 0, 0, 0, 0, 0) // pointer, patched below
	for _, r := range records {
		out = append(out, encodeRecord(r.Stage, r.Payload)...)
	}
	setPointer(out)
	return out
}

// Decode parses a log image, validating magic, version, the committed
// region's pointer and CRC, and every record CRC. It is total over
// arbitrary input (the WAL fuzz target) and strict inside the committed
// region: any truncation or flipped bit there is ErrCorrupt. Bytes past
// the committed pointer are the uncommitted tail of an interrupted
// append and are ignored.
func Decode(data []byte) ([]Record, error) {
	if len(data) < headerLen {
		return nil, fmt.Errorf("%w: %d-byte file, want >= %d-byte header", ErrCorrupt, len(data), headerLen)
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, data[:len(Magic)])
	}
	if v := binary.LittleEndian.Uint32(data[len(Magic):]); v != Version {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrVersion, v, Version)
	}
	committedLen := binary.LittleEndian.Uint32(data[ptrOffset:])
	sum := binary.LittleEndian.Uint32(data[ptrOffset+4:])
	if uint64(committedLen) > uint64(len(data)-headerLen) {
		return nil, fmt.Errorf("%w: committed length %d exceeds %d file bytes",
			ErrCorrupt, committedLen, len(data)-headerLen)
	}
	rest := data[headerLen : headerLen+int(committedLen)]
	if got := crc32.ChecksumIEEE(rest); got != sum {
		return nil, fmt.Errorf("%w: committed-region CRC mismatch (got %08x, want %08x)", ErrCorrupt, got, sum)
	}

	var records []Record
	for len(rest) > 0 {
		if len(rest) < 4 {
			return nil, fmt.Errorf("%w: truncated record header", ErrCorrupt)
		}
		stageLen := binary.LittleEndian.Uint32(rest)
		rest = rest[4:]
		if stageLen == 0 || stageLen > maxStageLen || uint64(stageLen) > uint64(len(rest)) {
			return nil, fmt.Errorf("%w: stage length %d out of range", ErrCorrupt, stageLen)
		}
		stage := string(rest[:stageLen])
		rest = rest[stageLen:]
		if len(rest) < 8 {
			return nil, fmt.Errorf("%w: truncated record for stage %q", ErrCorrupt, stage)
		}
		payloadLen := binary.LittleEndian.Uint32(rest)
		recSum := binary.LittleEndian.Uint32(rest[4:])
		rest = rest[8:]
		if payloadLen > maxPayloadLen || uint64(payloadLen) > uint64(len(rest)) {
			return nil, fmt.Errorf("%w: payload length %d exceeds remaining %d bytes (stage %q)",
				ErrCorrupt, payloadLen, len(rest), stage)
		}
		payload := rest[:payloadLen]
		rest = rest[payloadLen:]
		if got := crc32.ChecksumIEEE(payload); got != recSum {
			return nil, fmt.Errorf("%w: CRC mismatch on stage %q (got %08x, want %08x)",
				ErrCorrupt, stage, got, recSum)
		}
		records = append(records, Record{
			Stage:   stage,
			Seq:     len(records),
			Payload: append([]byte(nil), payload...),
		})
	}
	return records, nil
}
