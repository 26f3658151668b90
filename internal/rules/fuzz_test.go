package rules_test

import (
	"bytes"
	"os"
	"testing"

	"detective/internal/rules"
)

// FuzzParseRules: every accepted rule text re-encodes to a fixed point.
// EncodeRules of the parsed rules must parse back, and encoding that
// parse must reproduce the same bytes, so no value (quotes, escapes,
// blanks, non-UTF-8 bytes) changes on a save/load cycle.
func FuzzParseRules(f *testing.F) {
	seed, err := os.ReadFile("../../testdata/e2e/rules.dr")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte("rule \"a b\" {\n pos p col=\"A\" type=\"Nobel \\\"Peace\\\" Prize\"\n edge p \"r s\" p\n}\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		rs, err := rules.ParseRules(bytes.NewReader(data))
		if err != nil {
			return
		}
		var enc1 bytes.Buffer
		if err := rules.EncodeRules(&enc1, rs); err != nil {
			t.Fatalf("EncodeRules: %v", err)
		}
		rs2, err := rules.ParseRules(bytes.NewReader(enc1.Bytes()))
		if err != nil {
			t.Fatalf("encoding does not parse back: %v\n%s", err, enc1.Bytes())
		}
		var enc2 bytes.Buffer
		if err := rules.EncodeRules(&enc2, rs2); err != nil {
			t.Fatalf("EncodeRules (second pass): %v", err)
		}
		if !bytes.Equal(enc1.Bytes(), enc2.Bytes()) {
			t.Fatalf("encoding is not a fixed point:\nfirst:\n%s\nsecond:\n%s", enc1.Bytes(), enc2.Bytes())
		}
	})
}
