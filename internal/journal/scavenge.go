package journal

import (
	"encoding/binary"
	"fmt"
	"os"

	"ringrobots/internal/faultfs"
)

// Span is a half-open byte range [Off, End) of damaged (unparseable)
// journal bytes.
type Span struct {
	Off int
	End int
}

// ScavengeResult is the outcome of a resynchronizing scan: every
// record-boundary-aligned valid record in the buffer — including
// records AFTER damaged regions, which prefix recovery would discard —
// plus the exact damaged spans between them. Records[i] starts at
// Offsets[i]; Records and Spans tile the input exactly (re-encoding
// each record at its offset and splicing the raw span bytes back in
// reconstructs the buffer byte for byte), which is what lets Repair
// quarantine damage byte-exact with zero silent loss.
type ScavengeResult struct {
	Records [][]byte // payloads, aliasing the scanned buffer
	Offsets []int    // start offset of each record's header
	Spans   []Span   // damaged ranges, in order, non-adjacent to each other
}

// Clean reports whether the buffer parsed end-to-end with no damage —
// in which case Records is byte-identical to what Scan returns.
func (r ScavengeResult) Clean() bool { return len(r.Spans) == 0 }

// ScavengeBytes scans buf for valid records, resynchronizing after
// damage instead of stopping at it. Up to the first damage it is
// exactly Scan, so its records are always a superset of prefix
// recovery at the same offsets. After damage it probes forward one
// byte at a time for the next offset where a fully-valid, non-empty
// record begins and resumes there; the skipped bytes become a Span.
// The non-empty requirement only applies to the resync anchor: an
// all-zero run decodes as an endless train of empty records (length 0,
// CRC32("") = 0), which would make any zeroed damage "parse" — inside
// a contiguous valid run, empty records remain valid, matching Scan.
func ScavengeBytes(buf []byte) ScavengeResult {
	var res ScavengeResult
	off := 0
	for off < len(buf) {
		payload, size, ok := recordAt(buf, off)
		if ok {
			res.Records = append(res.Records, payload)
			res.Offsets = append(res.Offsets, off)
			off += size
			continue
		}
		// Damage at off: probe for the next resync anchor.
		anchor := -1
		for p := off + 1; p <= len(buf)-headerSize; p++ {
			if pay, _, ok := recordAt(buf, p); ok && len(pay) > 0 {
				anchor = p
				break
			}
		}
		if anchor < 0 {
			res.Spans = append(res.Spans, Span{Off: off, End: len(buf)})
			return res
		}
		res.Spans = append(res.Spans, Span{Off: off, End: anchor})
		off = anchor
	}
	return res
}

// FsckReport summarizes an offline journal check.
type FsckReport struct {
	Path        string
	SizeBytes   int64
	Records     int    // records scavenge recovers
	PrefixValid int    // records prefix recovery (Open/Scan) would keep
	Spans       []Span // damaged byte ranges
}

// Clean reports whether the journal parsed with no damage.
func (r FsckReport) Clean() bool { return len(r.Spans) == 0 }

// Lost reports how many recovered records lie beyond the first damage
// — the records prefix recovery would silently discard.
func (r FsckReport) Lost() int { return r.Records - r.PrefixValid }

// Fsck verifies the journal at path without locking or modifying it:
// safe to run against a live journal (the report may lag in-flight
// appends) or a dead one.
func Fsck(fsys faultfs.FS, path string) (FsckReport, error) {
	buf, err := fsys.ReadFile(path)
	if err != nil {
		return FsckReport{}, err
	}
	sc := ScavengeBytes(buf)
	_, valid := Scan(buf)
	prefix := 0
	for _, off := range sc.Offsets {
		if off < valid {
			prefix++
		}
	}
	return FsckReport{
		Path:        path,
		SizeBytes:   int64(len(buf)),
		Records:     len(sc.Records),
		PrefixValid: prefix,
		Spans:       sc.Spans,
	}, nil
}

// RepairReport summarizes what Repair did.
type RepairReport struct {
	Path             string
	RecordsKept      int
	SpansQuarantined []Span
	BytesQuarantined int
	QuarantinePath   string
}

// Repair scavenges the journal at path and rewrites it to contain
// exactly the recovered records, quarantining every damaged span —
// byte-exact, with its original offset — to the path+".quarantine"
// sidecar before anything is discarded. The rewrite is atomic
// (WriteFileAtomic: temp + fsync + rename + dir fsync, keeping the
// journal's mode), and the quarantine sidecar is synced before the
// rename, so a crash at any point leaves either the original journal
// or the repaired one, never a state where damaged bytes are gone
// without a quarantine copy. Repair takes the journal's advisory
// writer lock; it fails with ErrLocked while a live writer holds the
// journal.
//
// Quarantine sidecar format: itself a journal, one record per span,
// payload = [8-byte LE original byte offset][raw damaged bytes].
// Repair on an already-clean journal is a no-op (no rewrite, no
// sidecar append).
func Repair(fsys faultfs.FS, path string) (RepairReport, error) {
	lock, err := acquireLock(path)
	if err != nil {
		return RepairReport{}, err
	}
	defer releaseLock(lock)

	buf, err := fsys.ReadFile(path)
	if err != nil {
		return RepairReport{}, err
	}
	sc := ScavengeBytes(buf)
	rep := RepairReport{
		Path:             path,
		RecordsKept:      len(sc.Records),
		SpansQuarantined: sc.Spans,
		QuarantinePath:   path + ".quarantine",
	}
	if sc.Clean() {
		return rep, nil
	}

	// Quarantine first: the damaged bytes must be durable in the
	// sidecar before the rewrite can make them unreachable.
	q, err := fsys.OpenFile(rep.QuarantinePath, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return rep, fmt.Errorf("journal: opening quarantine sidecar: %w", err)
	}
	var qrec []byte
	for _, sp := range sc.Spans {
		payload := make([]byte, 8+sp.End-sp.Off)
		binary.LittleEndian.PutUint64(payload, uint64(sp.Off))
		copy(payload[8:], buf[sp.Off:sp.End])
		qrec = AppendRecord(qrec[:0], payload)
		if _, err := q.Write(qrec); err != nil {
			q.Close()
			return rep, fmt.Errorf("journal: quarantining span [%d,%d): %w", sp.Off, sp.End, err)
		}
		rep.BytesQuarantined += sp.End - sp.Off
	}
	if err := q.Sync(); err != nil {
		q.Close()
		return rep, fmt.Errorf("journal: syncing quarantine sidecar: %w", err)
	}
	if err := q.Close(); err != nil {
		return rep, fmt.Errorf("journal: closing quarantine sidecar: %w", err)
	}

	// Atomic rewrite with exactly the recovered records.
	var rec []byte
	for _, payload := range sc.Records {
		rec = AppendRecord(rec, payload)
	}
	if _, err := WriteFileAtomic(fsys, path, rec); err != nil {
		return rep, fmt.Errorf("journal: rewriting repaired log: %w", err)
	}
	return rep, nil
}
