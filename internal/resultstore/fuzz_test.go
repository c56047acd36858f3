package resultstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strconv"
	"testing"

	"branchsim/internal/funcsim"
)

// FuzzDecodeCell drives arbitrary bytes through the BPCELL3 decoder, the
// point where a store directory's contents enter the process. Any input
// must be rejected or accepted without a panic. An accepted cell must be
// byte for byte the file the writer would write for the requested key
// and the record decoded from it — its header, its key line, its tag,
// every field and nothing after — and it must carry only its family's
// payload. With frame set, the input is treated as a cell body and given
// a valid header and digest, so the fuzzer reaches the key-line and
// payload checks behind the framing.
func FuzzDecodeCell(f *testing.F) {
	timingKey, accKey := testKey("164.gzip"), accuracyKey("164.gzip")
	timingRec := testRecord(timingKey)
	accRec := Record{Key: accKey, Accuracy: &funcsim.Result{
		Predictor: "bimode", Workload: "164.gzip", Insts: 150_000, Branches: 20_000, Mispredicts: 1_111, TakenRate: 0.625,
	}}
	cell := func(rec Record) []byte {
		raw, ok := encodeCell([]byte(rec.Key.Canonical()), rec)
		if !ok {
			f.Fatal("seed record refused")
		}
		return raw
	}
	timingCell, accCell := cell(timingRec), cell(accRec)
	body := func(raw []byte) []byte { return raw[bytes.IndexByte(raw, '\n')+1:] }
	for _, accuracy := range []bool{false, true} {
		f.Add(timingCell, accuracy, false)
		f.Add(accCell, accuracy, false)
		f.Add(body(timingCell), accuracy, true)
		f.Add(body(accCell), accuracy, true)
	}
	// body twice: past the header, then past the key line.
	timingPayload, accPayload := body(body(timingCell)), body(body(accCell))
	line := func(key Key) []byte { return []byte(key.Canonical() + "\n") }
	canonical := timingKey.Canonical()
	// A foreign key line: another cell's key over this cell's payload.
	f.Add(append(line(testKey("181.mcf")), timingPayload...), false, true)
	// A truncated key line, with and without the payload behind it.
	f.Add([]byte(canonical[:len(canonical)/2]), false, true)
	f.Add(append([]byte(canonical[:len(canonical)-1]+"\n"), timingPayload...), false, true)
	// The other family's payload under each family's key line.
	f.Add(append(line(accKey), timingPayload...), true, true)
	f.Add(append(line(timingKey), accPayload...), false, true)
	// Trailing bytes: a stray byte, a whole word, and both payloads.
	f.Add(append(append(line(timingKey), timingPayload...), 0), false, true)
	f.Add(append(append(line(accKey), accPayload...), make([]byte, 8)...), true, true)
	f.Add(append(append(line(timingKey), timingPayload...), accPayload...), false, true)
	// Each payload truncated at every field boundary, the empty payload
	// and the bare tag included.
	for _, rec := range []Record{timingRec, accRec} {
		payload, cuts := payloadCuts(rec)
		for _, n := range append([]int{0}, cuts[:len(cuts)-1]...) {
			f.Add(append(line(rec.Key), payload[:n]...), rec.Accuracy != nil, true)
		}
	}
	// A BPCELL2 cell, its payload JSON, and that body behind a BPCELL3
	// header.
	old := bpcell2(f, timingRec)
	f.Add(old, false, false)
	f.Add(body(old), false, true)
	// A BPCELL1 cell: the whole Record as JSON behind a BPCELL1 header.
	js, err := json.Marshal(timingRec)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(frameCell("BPCELL1", js), false, false)
	f.Add([]byte(cellMagic+" 00 0\n"), false, false)

	f.Fuzz(func(t *testing.T, raw []byte, accuracy, frame bool) {
		key := timingKey
		if accuracy {
			key = accKey
		}
		if frame {
			raw = frameCell(cellMagic, raw)
		}
		rec, ok := decodeCell(raw, []byte(key.Canonical()), key.Family)
		if !ok {
			return
		}
		if accuracy && (rec.Accuracy == nil || rec.Timing != nil) || !accuracy && (rec.Timing == nil || rec.Accuracy != nil) {
			t.Fatalf("accepted a %s record with payloads accuracy=%v timing=%v", key.Family, rec.Accuracy != nil, rec.Timing != nil)
		}
		if want, ok := encodeCell([]byte(key.Canonical()), rec); !ok || !bytes.Equal(raw, want) {
			t.Fatalf("accepted a cell the writer would not write for its key and record:\n got %q\nwant %q", raw, want)
		}
	})
}

// cutWriter is a cellWriter that notes the payload's length after its
// tag and after each field: the boundaries a truncated payload can end on.
type cutWriter struct {
	cellWriter
	cuts []int
}

func (c *cutWriter) cut()           { c.cuts = append(c.cuts, len(c.b)) }
func (c *cutWriter) str(p *string)  { c.cellWriter.str(p); c.cut() }
func (c *cutWriter) i64(p *int64)   { c.cellWriter.i64(p); c.cut() }
func (c *cutWriter) u64(p *uint64)  { c.cellWriter.u64(p); c.cut() }
func (c *cutWriter) f64(p *float64) { c.cellWriter.f64(p); c.cut() }
func (c *cutWriter) num(p *int)     { c.cellWriter.num(p); c.cut() }

// payloadCuts returns the payload encodeCell writes for rec's one result
// and the payload's length after its tag and after each field; the last
// is the whole payload's.
func payloadCuts(rec Record) ([]byte, []int) {
	c := new(cutWriter)
	if rec.Timing != nil {
		c.b = append(c.b, timingTag)
		c.cut()
		timingFields(c, rec.Timing)
	} else {
		c.b = append(c.b, accuracyTag)
		c.cut()
		accuracyFields(c, rec.Accuracy)
	}
	return c.b, c.cuts
}

// frameCell puts body behind a well-formed header of the given magic:
// the body's hex SHA-256 and its length.
func frameCell(magic string, body []byte) []byte {
	sum := sha256.Sum256(body)
	return append([]byte(magic+" "+hex.EncodeToString(sum[:])+" "+strconv.Itoa(len(body))+"\n"), body...)
}
