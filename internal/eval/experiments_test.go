package eval

import (
	"testing"

	"detective/internal/dataset"
)

// TestTimedEngineMemoOff: the Figure 8 engines run without the repair
// memo, so repeated timing passes repair every tuple again.
func TestTimedEngineMemoOff(t *testing.T) {
	ex := dataset.NewPaperExample()
	e, err := timedEngine(ex.Rules, ex.KB, ex.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if e.MemoStats().Enabled {
		t.Fatal("Figure 8 engine has the repair memo on")
	}
}
