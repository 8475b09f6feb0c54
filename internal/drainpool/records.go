package drainpool

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"
)

// Journal record encodings for the drain pool. Two journals exist:
//
// The POOL journal (pool.journal, written only by the coordinator,
// whose flock doubles as the single-coordinator guard) holds the
// coordinator's recoverable state: a partition record ('P') opening
// each generation with the full base checkpoint, lease grants ('L'),
// shard completions ('D', embedding the shard result so recovery never
// depends on retired shard journals), and the final verdict ('V'). It
// has no heartbeat record: liveness lives in the shard journals. The
// journal is compacted down to the newest 'P' when a generation opens
// — every older record is then derivable or obsolete — so replaying it
// is: take the last 'P', honor the 'L'/'D' records after it.
//
// Each SHARD journal (shard-g<gen>-s<shard>.journal, written by the
// worker holding its flock) holds the shard's meta ('S': generation,
// shard id and the heartbeat the worker must keep, seeded by the
// coordinator together with the initial checkpoint; the newest 'S'
// wins), periodic checkpoints ('C'), worker heartbeats ('H'), and the
// terminal shard result ('R'). The coordinator never takes a shard
// journal's lock: it stats the file for growth, the liveness signal,
// and reads it (journal.Scan over a plain read) once, for the result,
// when the worker is gone.
const (
	recPartition = 'P'
	recLease     = 'L'
	recHeartbeat = 'H' // no longer written; older coordinators' journals hold them
	recDone      = 'D'
	recVerdict   = 'V'

	recShardMeta = 'S'
	recShardCkpt = 'C'
	recShardBeat = 'H'
	recShardDone = 'R'
)

var errTruncatedRec = errors.New("drainpool: truncated journal record")

// encHeader starts a record: tag byte plus the given uvarint fields.
func encHeader(tag byte, fields ...uint64) []byte {
	b := []byte{tag}
	for _, f := range fields {
		b = binary.AppendUvarint(b, f)
	}
	return b
}

// decFields consumes n uvarint fields after the tag byte, returning
// them and the remaining payload.
func decFields(rec []byte, n int) ([]uint64, []byte, error) {
	if len(rec) < 1 {
		return nil, nil, errTruncatedRec
	}
	b := rec[1:]
	out := make([]uint64, n)
	for i := 0; i < n; i++ {
		v, sz := binary.Uvarint(b)
		if sz <= 0 {
			return nil, nil, errTruncatedRec
		}
		out[i] = v
		b = b[sz:]
	}
	return out, b, nil
}

func encPartition(gen, shards int, ckpt []byte) []byte {
	return append(encHeader(recPartition, uint64(gen), uint64(shards)), ckpt...)
}

func decPartition(rec []byte) (gen, shards int, ckpt []byte, err error) {
	f, rest, err := decFields(rec, 2)
	if err != nil {
		return 0, 0, nil, err
	}
	if len(rest) == 0 {
		return 0, 0, nil, fmt.Errorf("drainpool: partition record for generation %d has no checkpoint", f[0])
	}
	return int(f[0]), int(f[1]), rest, nil
}

func encLease(gen, shard, attempt int, expiryUnixNano int64) []byte {
	return encHeader(recLease, uint64(gen), uint64(shard), uint64(attempt), uint64(expiryUnixNano))
}

func decLease(rec []byte) (gen, shard, attempt int, expiryUnixNano int64, err error) {
	f, _, err := decFields(rec, 4)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	return int(f[0]), int(f[1]), int(f[2]), int64(f[3]), nil
}

func encDone(gen, shard int, result []byte) []byte {
	return append(encHeader(recDone, uint64(gen), uint64(shard)), result...)
}

func decDone(rec []byte) (gen, shard int, result []byte, err error) {
	f, rest, err := decFields(rec, 2)
	if err != nil {
		return 0, 0, nil, err
	}
	return int(f[0]), int(f[1]), rest, nil
}

func encVerdict(result []byte) []byte {
	return append([]byte{recVerdict}, result...)
}

func encShardMeta(gen, shard int, heartbeat time.Duration) []byte {
	return encHeader(recShardMeta, uint64(gen), uint64(shard), uint64(heartbeat))
}

func decShardMeta(rec []byte) (gen, shard int, heartbeat time.Duration, err error) {
	f, rest, err := decFields(rec, 2)
	if err != nil {
		return 0, 0, 0, err
	}
	heartbeat = time.Second // a two-field 'S' comes from an older coordinator, whose workers beat every 1s
	if len(rest) > 0 {
		hb, sz := binary.Uvarint(rest)
		if sz <= 0 || hb == 0 {
			return 0, 0, 0, errTruncatedRec
		}
		heartbeat = time.Duration(hb)
	}
	return int(f[0]), int(f[1]), heartbeat, nil
}

func encShardCkpt(ckpt []byte) []byte {
	return append([]byte{recShardCkpt}, ckpt...)
}

func encShardDone(result []byte) []byte {
	return append([]byte{recShardDone}, result...)
}
