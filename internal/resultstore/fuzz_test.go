package resultstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"branchsim/internal/funcsim"
)

// FuzzDecodeCell drives arbitrary bytes through the BPCELL1 decoder, the
// point where a store directory's contents enter the process. Any input
// must be rejected or accepted without a panic, and an accepted record
// must be exactly the requested cell: its key's Canonical form equals the
// requested one and it carries only its family's payload. With frame set,
// the input is treated as a cell body and given a valid header and digest,
// so the fuzzer reaches the JSON, key and payload checks behind the
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
		raw, err := os.ReadFile(s.path(rec.Key))
		if err != nil {
			f.Fatalf("seed cell: %v", err)
		}
		return raw
	}
	timingCell := seed(testRecord(timingKey))
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
	// A well-framed body whose payload is the other family's.
	wrong, err := json.Marshal(Record{Key: accuracyKey, Timing: testRecord(accuracyKey).Timing})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(wrong, true, true)
	f.Add([]byte(cellMagic+" 00 0\n"), false, false)

	f.Fuzz(func(t *testing.T, raw []byte, accuracy, frame bool) {
		key := timingKey
		if accuracy {
			key = accuracyKey
		}
		if frame {
			sum := sha256.Sum256(raw)
			raw = append([]byte(fmt.Sprintf("%s %s %d\n", cellMagic, hex.EncodeToString(sum[:]), len(raw))), raw...)
		}
		rec, ok := decodeCell(raw, key.Canonical())
		if !ok {
			return
		}
		if got := rec.Key.Canonical(); got != key.Canonical() {
			t.Fatalf("accepted another cell's record:\n got %s\nwant %s", got, key.Canonical())
		}
		if accuracy && (rec.Accuracy == nil || rec.Timing != nil) || !accuracy && (rec.Timing == nil || rec.Accuracy != nil) {
			t.Fatalf("accepted a %s record with payloads accuracy=%v timing=%v", key.Family, rec.Accuracy != nil, rec.Timing != nil)
		}
	})
}
