package campaign

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzCampaignSpec drives Parse over arbitrary bytes. Parse must never
// panic: a bad spec is an error. A spec it accepts must survive a
// round trip: re-encoded as JSON it parses again, to the same JSON.
func FuzzCampaignSpec(f *testing.F) {
	f.Add([]byte(miniSpec))
	f.Add([]byte(`{"workloads":[{"kind":"summa","size":1024,"procs":4}],"strategies":[{"kind":"dynamic","regions":["fft"]}]}`))
	f.Add([]byte(`{"workloads":[{"kind":"summa","size":-4}],"strategies":[{"kind":"static"}]}`))   // negative SUMMA size
	f.Add([]byte(`{"workloads":[{"kind":"summa","size":4097}],"strategies":[{"kind":"static"}]}`)) // size not divisible by the grid
	f.Add([]byte(`{"workloads":[{"kind":"ft","class":"Z"}],"strategies":[{"kind":"static"}]}`))
	f.Add([]byte(`{"workloads":[{"kind":"swim"}],"strategies":[{"kind":"static"}],"settle":"soon"}`))
	f.Add([]byte(`{`))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(bytes.NewReader(data))
		if err != nil {
			return
		}
		enc, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		again, err := Parse(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("accepted spec re-parses with error %v:\n%s", err, enc)
		}
		enc2, err := json.Marshal(again)
		if err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("round trip changed the spec (%v):\n%s\n%s", err, enc, enc2)
		}
	})
}
