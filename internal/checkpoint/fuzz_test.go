package checkpoint

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// FuzzDecode throws arbitrary bytes — seeded with valid journals,
// truncations, corrupt checksums and version skew — at the journal
// decoder. The decoder must never panic, must accept every record it
// itself wrote, and must fail only with its typed errors.
func FuzzDecode(f *testing.F) {
	valid := `{"kind":"ropus-checkpoint","version":1,"run":"00000000deadbeef"}` + "\n" +
		string(mustEncode(Record{Unit: "u", Key: "0000000000000001", Data: []byte(`{"a":1}`)}))
	f.Add([]byte(valid))
	f.Add([]byte(valid[:len(valid)-3]))                                        // torn tail
	f.Add([]byte(""))                                                          // empty file
	f.Add([]byte("{"))                                                         // torn header
	f.Add([]byte("not json at all\n\n"))                                       // garbage
	f.Add([]byte(`{"kind":"ropus-checkpoint","version":2,"run":"00"}` + "\n")) // version skew
	f.Add([]byte(strings.Replace(valid, `"a":1`, `"a":2`, 1)))                 // checksum mismatch
	f.Add([]byte(strings.Replace(valid, "0000000000000001", "zznothex", 1)))   // bad key

	f.Fuzz(func(t *testing.T, data []byte) {
		run, records, err := Decode(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
				t.Fatalf("Decode returned an untyped error: %v", err)
			}
			return
		}
		if run == "" {
			return // decoded as a pre-header crash: nothing to re-check
		}
		// Whatever decoded must re-encode and decode to the same records.
		var buf bytes.Buffer
		buf.WriteString(`{"kind":"ropus-checkpoint","version":1,"run":"` + run + `"}` + "\n")
		for _, r := range records {
			line, err := encodeRecord(r)
			if err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			buf.Write(line)
		}
		_, again, err := Decode(&buf)
		if err != nil {
			t.Fatalf("re-decode of decoder output failed: %v", err)
		}
		if len(again) != len(records) {
			t.Fatalf("re-decode kept %d of %d records", len(again), len(records))
		}
		for i := range again {
			if again[i].Unit != records[i].Unit || again[i].Key != records[i].Key ||
				!bytes.Equal(again[i].Data, records[i].Data) {
				t.Fatalf("record %d changed across re-decode", i)
			}
		}
	})
}

func mustEncode(r Record) []byte {
	line, err := encodeRecord(r)
	if err != nil {
		panic(err)
	}
	return line
}
