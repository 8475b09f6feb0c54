// Package verdictstore keeps finished verdicts and the checkpoints of
// unfinished drains in one journal, keyed by instance. Store.Drain is
// the journaled solve that both the verdict service (/solve) and the
// single-process cmd/drain run, so a drained journal is a store the
// service serves as-is. A verdict's survivor is stored in
// feasibility.Table's wire form (Table.AppendBinary, DecodeTable), the
// encoding checkpoints and shard results use, and compaction is the
// journal's one atomic rewrite, which keeps the journal's mode.
package verdictstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"ringrobots/internal/faultfs"
	"ringrobots/internal/feasibility"
	"ringrobots/internal/journal"
)

// The verdict store: a content-addressed map from instance key
// (feasibility.Instance.Key — canonical instance + solver version +
// mode flags) to either a final verdict or the latest checkpoint of an
// unfinished drain, persisted as typed records in one append-only
// journal (internal/journal), so the whole map survives kill -9 with
// torn-tail recovery. Records are append-only during operation;
// CompactIfAbove rewrites the log down to its live content (every
// verdict + the newest checkpoint per unfinished instance) atomically,
// once dead bytes outweigh live ones, so rewrite cost is amortized
// against the appends that made the garbage.

// Store record types (first payload byte).
const (
	recVerdict    = 'V'
	recCheckpoint = 'C'
)

// instanceKeyLen is the length of feasibility.Instance.Key (SHA-256).
const instanceKeyLen = 32

// Verdict is a finished solve as the store persists and the service
// serves it.
type Verdict struct {
	Impossible     bool
	Tier           int
	TablesExplored int
	ExpansionUnits int64
	// Survivor is the surviving table when Impossible is false (may
	// still be nil if the final tier aborted after earlier tiers
	// survived — the service never stores those).
	Survivor feasibility.Table
}

// VerdictOf is the verdict a finished solve persists.
func VerdictOf(res feasibility.Result) Verdict {
	return Verdict{
		Impossible:     res.Impossible,
		Tier:           res.Tier,
		TablesExplored: res.TablesExplored,
		ExpansionUnits: res.ExpansionUnits,
		Survivor:       res.SurvivorTable,
	}
}

// EncodeVerdict emits the deterministic binary body of a verdict: a
// flags byte, the tier and counters, then the survivor, if any, in
// feasibility.Table's wire form (entries sorted by observation).
// Encoding the same verdict twice yields identical bytes, so fault
// tests can diff stored verdicts across crash-riddled runs.
func EncodeVerdict(v Verdict) []byte {
	b := make([]byte, 0, 32+16*len(v.Survivor))
	var flags byte
	if v.Impossible {
		flags |= 1
	}
	if v.Survivor != nil {
		flags |= 2
	}
	b = append(b, flags)
	b = binary.AppendUvarint(b, uint64(v.Tier))
	b = binary.AppendUvarint(b, uint64(v.TablesExplored))
	b = binary.AppendVarint(b, v.ExpansionUnits)
	if v.Survivor != nil {
		b = v.Survivor.AppendBinary(b)
	}
	return b
}

// storeDecoder is a sticky-error cursor over a verdict body.
type storeDecoder struct {
	b   []byte
	err error
}

var errTruncatedRecord = errors.New("verdictstore: truncated store record")

func (d *storeDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.err = errTruncatedRecord
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *storeDecoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.err = errTruncatedRecord
		return 0
	}
	d.b = d.b[n:]
	return v
}

// DecodeVerdict parses a body written by EncodeVerdict.
func DecodeVerdict(b []byte) (Verdict, error) {
	if len(b) == 0 {
		return Verdict{}, errTruncatedRecord
	}
	flags := b[0]
	d := &storeDecoder{b: b[1:]}
	v := Verdict{Impossible: flags&1 != 0}
	v.Tier = int(d.uvarint())
	v.TablesExplored = int(d.uvarint())
	v.ExpansionUnits = d.varint()
	if flags&2 != 0 && d.err == nil {
		var n int
		v.Survivor, n, d.err = feasibility.DecodeTable(d.b)
		d.b = d.b[n:]
	}
	if d.err != nil {
		return Verdict{}, d.err
	}
	if len(d.b) != 0 {
		return Verdict{}, fmt.Errorf("verdictstore: %d trailing bytes after verdict", len(d.b))
	}
	return v, nil
}

// encodeRecord frames a store record: type byte, 32-byte instance key,
// body.
func encodeRecord(typ byte, key string, body []byte) []byte {
	rec := make([]byte, 0, 1+instanceKeyLen+len(body))
	rec = append(rec, typ)
	rec = append(rec, key...)
	return append(rec, body...)
}

// decodeRecordHeader splits a store record into type, key and body.
func decodeRecordHeader(rec []byte) (typ byte, key string, body []byte, err error) {
	if len(rec) < 1+instanceKeyLen {
		return 0, "", nil, fmt.Errorf("verdictstore: store record of %d bytes is shorter than its header", len(rec))
	}
	typ = rec[0]
	if typ != recVerdict && typ != recCheckpoint {
		return 0, "", nil, fmt.Errorf("verdictstore: unknown store record type %q", typ)
	}
	return typ, string(rec[1 : 1+instanceKeyLen]), rec[1+instanceKeyLen:], nil
}

// Store is the journal-backed verdict store. All methods are safe for
// concurrent use.
type Store struct {
	mu  sync.Mutex
	log *journal.Log
	// verdicts holds final answers; checkpoints the latest journaled
	// checkpoint per unfinished instance (dropped once a verdict
	// lands). Both are keyed by feasibility.Instance.Key.
	verdicts    map[string]Verdict
	checkpoints map[string][]byte
	// live is the framed on-disk size of each key's live record (its
	// verdict, else its latest checkpoint); liveBytes is their sum —
	// exactly the Size a full compaction leaves behind.
	live      map[string]int64
	liveBytes int64

	checkpointsJournaled atomic.Int64 // checkpoint records appended
	compactions          atomic.Int64 // successful compactions
}

// setLive records a just-journaled payload of payloadLen bytes as
// key's live record, retiring the bytes of the one it supersedes.
// Callers hold st.mu (or own st exclusively, during replay).
func (st *Store) setLive(key string, payloadLen int) {
	size := journal.RecordSize(payloadLen)
	st.liveBytes += size - st.live[key]
	st.live[key] = size
}

// OpenFS opens (creating if absent) the store journal through
// fsys and replays it: torn tails are truncated by the journal layer
// (mid-file corruption makes the open fail with journal.ErrCorrupt —
// run `drain -fsck -repair` rather than losing served verdicts); a
// record that passed its checksum but fails semantic decode means a
// software bug or external corruption, and Open fails rather than
// serving from a store it cannot fully read.
func OpenFS(fsys faultfs.FS, path string, policy journal.SyncPolicy) (*Store, error) {
	log, err := journal.OpenFS(fsys, path, policy)
	if err != nil {
		return nil, err
	}
	st := &Store{
		log:         log,
		verdicts:    make(map[string]Verdict),
		checkpoints: make(map[string][]byte),
		live:        make(map[string]int64),
	}
	i := 0
	err = log.ForEach(func(payload []byte) error {
		i++
		typ, key, body, err := decodeRecordHeader(payload)
		if err != nil {
			return fmt.Errorf("record %d: %w", i, err)
		}
		switch typ {
		case recVerdict:
			v, err := DecodeVerdict(body)
			if err != nil {
				return fmt.Errorf("record %d: %w", i, err)
			}
			st.verdicts[key] = v
			delete(st.checkpoints, key)
		case recCheckpoint:
			// Later records supersede earlier ones; a checkpoint after a
			// verdict would be a writer bug, but replay tolerates it by
			// preferring the verdict (the checkpoint is dead bytes).
			if _, done := st.verdicts[key]; done {
				return nil
			}
			st.checkpoints[key] = append([]byte(nil), body...)
		}
		st.setLive(key, len(payload))
		return nil
	})
	if err != nil {
		log.Close()
		return nil, fmt.Errorf("verdictstore: replaying store %s: %w", path, err)
	}
	return st, nil
}

// Verdict returns the stored verdict for an instance key.
func (st *Store) Verdict(key string) (Verdict, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	v, ok := st.verdicts[key]
	return v, ok
}

// Checkpoint returns the latest journaled checkpoint for an instance
// key (absent once a verdict is stored).
func (st *Store) Checkpoint(key string) ([]byte, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, done := st.verdicts[key]; done {
		return nil, false
	}
	raw, ok := st.checkpoints[key]
	return raw, ok
}

// PutVerdict journals a verdict (fsynced regardless of the store's
// append policy — a verdict handed to a client must survive a crash)
// and publishes it; the instance's checkpoint becomes irrelevant.
func (st *Store) PutVerdict(key string, v Verdict) error {
	rec := encodeRecord(recVerdict, key, EncodeVerdict(v))
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := st.log.Append(rec); err != nil {
		return err
	}
	if err := st.log.Sync(); err != nil {
		return err
	}
	st.verdicts[key] = v
	delete(st.checkpoints, key)
	st.setLive(key, len(rec))
	return nil
}

// PutCheckpoint journals a checkpoint for an unfinished instance. A
// checkpoint for an instance that already has a verdict is moot (reads
// prefer the verdict) and is not journaled.
func (st *Store) PutCheckpoint(key string, raw []byte) error {
	rec := encodeRecord(recCheckpoint, key, raw)
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, done := st.verdicts[key]; done {
		return nil
	}
	if err := st.log.Append(rec); err != nil {
		return err
	}
	st.checkpoints[key] = append([]byte(nil), raw...)
	st.setLive(key, len(rec))
	st.checkpointsJournaled.Add(1)
	return nil
}

// Counts reports stored verdicts and live checkpoints plus journal
// size (for /metricz and the compaction policy).
func (st *Store) Counts() (verdicts, checkpoints, records int, bytes int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.verdicts), len(st.checkpoints), st.log.Len(), st.log.Size()
}

// Activity reports the checkpoint records journaled and the
// compactions run since the store opened (for /metricz).
func (st *Store) Activity() (checkpoints, compactions int64) {
	return st.checkpointsJournaled.Load(), st.compactions.Load()
}

// LiveBytes reports the framed size of the live records — the journal
// size a compaction would leave (for /metricz).
func (st *Store) LiveBytes() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.liveBytes
}

// CompactIfAbove compacts the journal down to its live records (all
// verdicts, then the latest checkpoint of each unfinished instance, in
// sorted key order for determinism) when it holds more than limit
// records and its dead bytes exceed its live bytes (Size > 2×live).
// limit is a floor below which the store never compacts; 0 disables
// compaction. A rewrite of L live bytes waits until the journal exceeds
// 2L bytes, so in total compaction writes less than was appended since
// the store opened plus its size at open — amortized O(1) per appended
// byte — and, called after every write, it keeps a journal of more
// than limit records within twice its live bytes. The rewrite is atomic
// (temp + rename): a crash leaves the old log or the new one, never a
// mix. compacted reports whether a rewrite succeeded.
func (st *Store) CompactIfAbove(limit int) (compacted bool, err error) {
	if limit <= 0 {
		return false, nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.log.Len() <= limit || st.log.Size() <= 2*st.liveBytes {
		return false, nil
	}
	if err := st.compactLocked(); err != nil {
		return false, err
	}
	st.compactions.Add(1)
	return true, nil
}

// compactLocked rewrites the journal to exactly the live records.
// Callers hold st.mu.
func (st *Store) compactLocked() error {
	keys := make([]string, 0, len(st.verdicts)+len(st.checkpoints))
	for k := range st.verdicts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	keep := make([][]byte, 0, len(keys)+len(st.checkpoints))
	for _, k := range keys {
		keep = append(keep, encodeRecord(recVerdict, k, EncodeVerdict(st.verdicts[k])))
	}
	keys = keys[:0]
	for k := range st.checkpoints {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		keep = append(keep, encodeRecord(recCheckpoint, k, st.checkpoints[k]))
	}
	return st.log.Compact(keep)
}

// Close releases the journal handle.
func (st *Store) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.log.Close()
}
