package journal

import (
	"bytes"
	"testing"
)

// FuzzScan drives the record decoder with arbitrary bytes — torn
// tails, bit flips, zero-length records, giant declared lengths — and
// asserts the recovery contract: Scan never panics, the valid prefix it
// reports re-encodes byte-identically to the input's prefix (so
// truncating there loses nothing before the last complete record), and
// recovery is idempotent (rescanning the valid prefix yields the same
// records and consumes all of it).
func FuzzScan(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendRecord(nil, []byte("seed")))
	f.Add(AppendRecord(AppendRecord(nil, nil), []byte("two")))
	// Torn tail: a record and a half.
	two := AppendRecord(AppendRecord(nil, []byte("whole")), []byte("torn-off-tail"))
	f.Add(two[:len(two)-5])
	// Giant declared length.
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0, 1, 2, 3})
	// Bit flip in a valid record's payload.
	flip := AppendRecord(nil, []byte("flip-me"))
	flip[headerSize+2] ^= 1
	f.Add(flip)
	// Verdict-store shaped payloads (internal/verdictstore): a one-byte
	// record type, a 32-byte instance key, then a typed body. Built
	// inline (the journal is payload-agnostic) so the fuzzer explores
	// the shapes the store actually journals.
	key := bytes.Repeat([]byte{0xa5}, 32)
	verdictRec := append(append([]byte{'V'}, key...), 0x01, 0x02, 0x09, 0x7b)
	f.Add(AppendRecord(nil, verdictRec))
	ckptRec := append(append([]byte{'C'}, key...), []byte("checkpoint-body")...)
	f.Add(AppendRecord(AppendRecord(nil, verdictRec), ckptRec))
	// Torn tail mid-way through a checkpoint record.
	tornStore := AppendRecord(AppendRecord(nil, verdictRec), ckptRec)
	f.Add(tornStore[:len(tornStore)-7])
	// A store record whose key is truncated by a bit flip in the length.
	shortKey := AppendRecord(nil, append([]byte{'V'}, key[:13]...))
	f.Add(shortKey)
	// Mid-buffer corruption with live records beyond it — the scavenge
	// cases: a flip in the FIRST record's payload with two intact after
	// it, a flip in a middle record's header, and a zeroed hole
	// (decodes as empty records, which must not anchor a resync).
	three := AppendRecord(nil, []byte("first-record"))
	three = AppendRecord(three, []byte("middle"))
	midOff := len(three)
	three = AppendRecord(three, []byte("last-one-standing"))
	earlyFlip := append([]byte(nil), three...)
	earlyFlip[headerSize+3] ^= 0x10
	f.Add(earlyFlip)
	hdrFlip := append([]byte(nil), three...)
	hdrFlip[midOff+1] ^= 0x04
	f.Add(hdrFlip)
	// 21 zero bytes: the first 16 decode as phantom empty records
	// (length 0, CRC32("") = 0 — Scan-valid), the trailing 5 break the
	// next header, forcing a genuine resync probe to after-hole.
	hole := AppendRecord(nil, []byte("before-hole"))
	hole = append(hole, make([]byte, 21)...)
	hole = AppendRecord(hole, []byte("after-hole"))
	f.Add(hole)

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, valid := Scan(data)
		if valid < 0 || valid > len(data) {
			t.Fatalf("valid prefix %d out of range [0, %d]", valid, len(data))
		}
		// Re-encoding the recovered records must reproduce the valid
		// prefix exactly: recovery lands on a record boundary and loses
		// nothing before it.
		var enc []byte
		for _, r := range recs {
			enc = AppendRecord(enc, r)
		}
		if !bytes.Equal(enc, data[:valid]) {
			t.Fatalf("recovered records re-encode to %d bytes != valid prefix %d", len(enc), valid)
		}
		// Idempotence: scanning the valid prefix consumes all of it and
		// yields the same record count.
		recs2, valid2 := Scan(data[:valid])
		if valid2 != valid || len(recs2) != len(recs) {
			t.Fatalf("rescan of valid prefix: %d records / %d bytes, want %d / %d",
				len(recs2), valid2, len(recs), valid)
		}

		// Scavenge contract, against the same arbitrary bytes.
		sc := ScavengeBytes(data)
		// Superset: everything prefix recovery keeps, scavenge keeps
		// too, at the same offsets — damage never costs records before
		// it.
		if len(sc.Records) < len(recs) {
			t.Fatalf("scavenge recovered %d records < prefix's %d", len(sc.Records), len(recs))
		}
		off := 0
		for i, r := range recs {
			if sc.Offsets[i] != off || !bytes.Equal(sc.Records[i], r) {
				t.Fatalf("scavenged record %d at %d differs from prefix record at %d", i, sc.Offsets[i], off)
			}
			off += headerSize + len(r)
		}
		// Clean input parses identically: no spans, same record count.
		if valid == len(data) && (!sc.Clean() || len(sc.Records) != len(recs)) {
			t.Fatalf("clean input: scavenge found %d spans / %d records, want 0 / %d",
				len(sc.Spans), len(sc.Records), len(recs))
		}
		// Tiling: re-encoded records at their offsets plus the raw span
		// bytes reconstruct the input byte-exact — the corrupt spans are
		// quarantined byte-exact, nothing is silently dropped.
		var out []byte
		ri, si := 0, 0
		for pos := 0; pos < len(data); {
			switch {
			case ri < len(sc.Offsets) && sc.Offsets[ri] == pos:
				out = AppendRecord(out, sc.Records[ri])
				pos += headerSize + len(sc.Records[ri])
				ri++
			case si < len(sc.Spans) && sc.Spans[si].Off == pos:
				if sc.Spans[si].End <= pos || sc.Spans[si].End > len(data) {
					t.Fatalf("span %d = %+v out of range", si, sc.Spans[si])
				}
				out = append(out, data[pos:sc.Spans[si].End]...)
				pos = sc.Spans[si].End
				si++
			default:
				t.Fatalf("byte %d covered by neither a record nor a span", pos)
			}
		}
		if ri != len(sc.Offsets) || si != len(sc.Spans) || !bytes.Equal(out, data) {
			t.Fatalf("records+spans do not tile the input (used %d/%d records, %d/%d spans)",
				ri, len(sc.Offsets), si, len(sc.Spans))
		}
	})
}
