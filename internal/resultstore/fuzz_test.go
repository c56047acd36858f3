package resultstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"strconv"
	"testing"

	"branchsim/internal/funcsim"
)

// FuzzDecodeCell drives arbitrary bytes through the BPCELL2 decoder, the
// point where a store directory's contents enter the process. Any input
// must be rejected or accepted without a panic. An accepted cell must be
// exactly the requested one: its header is the one the writer would put
// on its body, its key line is the requested key's Canonical form, and
// it carries only its family's payload. With frame set, the input is
// treated as a cell body and given a valid header and digest, so the
// fuzzer reaches the key-line, JSON and payload checks behind the
// framing.
func FuzzDecodeCell(f *testing.F) {
	timingKey := testKey("164.gzip")
	accuracyKey := timingKey
	accuracyKey.Family, accuracyKey.Machine = "accuracy", ""
	s, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	seed := func(rec Record) []byte {
		s.Put(rec.Key, rec)
		raw, err := os.ReadFile(s.keyPath(rec.Key))
		if err != nil {
			f.Fatalf("seed cell: %v", err)
		}
		return raw
	}
	timingRec := testRecord(timingKey)
	timingCell := seed(timingRec)
	accuracyCell := seed(Record{Key: accuracyKey, Accuracy: &funcsim.Result{
		Predictor: "bimode", Workload: "164.gzip", Insts: 150_000, Branches: 20_000, Mispredicts: 1_111,
	}})
	body := func(raw []byte) []byte { return raw[bytes.IndexByte(raw, '\n')+1:] }
	for _, accuracy := range []bool{false, true} {
		f.Add(timingCell, accuracy, false)
		f.Add(accuracyCell, accuracy, false)
		f.Add(body(timingCell), accuracy, true)
		f.Add(body(accuracyCell), accuracy, true)
	}
	timingPayload := body(body(timingCell)) // the JSON after the key line
	canonical := timingKey.Canonical()
	// A foreign key line: another cell's key over this cell's payload.
	f.Add(append([]byte(testKey("181.mcf").Canonical()+"\n"), timingPayload...), false, true)
	// A truncated key line, with and without the payload behind it.
	f.Add([]byte(canonical[:len(canonical)/2]), false, true)
	f.Add(append([]byte(canonical[:len(canonical)-1]+"\n"), timingPayload...), false, true)
	// The other family's payload under a well-formed key line.
	f.Add(append([]byte(accuracyKey.Canonical()+"\n"), timingPayload...), true, true)
	// A BPCELL1 cell: the whole Record as JSON behind a BPCELL1 header.
	old, err := json.Marshal(timingRec)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(frameCell("BPCELL1", old), false, false)
	f.Add([]byte(cellMagic+" 00 0\n"), false, false)

	f.Fuzz(func(t *testing.T, raw []byte, accuracy, frame bool) {
		key := timingKey
		if accuracy {
			key = accuracyKey
		}
		if frame {
			raw = frameCell(cellMagic, raw)
		}
		rec, ok := decodeCell(raw, []byte(key.Canonical()), key.Family)
		if !ok {
			return
		}
		header, body, _ := bytes.Cut(raw, []byte{'\n'})
		if want := frameCell(cellMagic, body); !bytes.Equal(raw, want) {
			t.Fatalf("accepted a header the writer would not write:\n got %q\nwant %q", header, want[:bytes.IndexByte(want, '\n')])
		}
		if line, _, _ := bytes.Cut(body, []byte{'\n'}); string(line) != key.Canonical() {
			t.Fatalf("accepted another cell's key line:\n got %s\nwant %s", line, key.Canonical())
		}
		if accuracy && (rec.Accuracy == nil || rec.Timing != nil) || !accuracy && (rec.Timing == nil || rec.Accuracy != nil) {
			t.Fatalf("accepted a %s record with payloads accuracy=%v timing=%v", key.Family, rec.Accuracy != nil, rec.Timing != nil)
		}
	})
}

// frameCell puts body behind a well-formed header of the given magic:
// the body's hex SHA-256 and its length.
func frameCell(magic string, body []byte) []byte {
	sum := sha256.Sum256(body)
	return append([]byte(magic+" "+hex.EncodeToString(sum[:])+" "+strconv.Itoa(len(body))+"\n"), body...)
}
