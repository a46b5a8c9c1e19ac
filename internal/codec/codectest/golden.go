package codectest

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"mochi/internal/codec"
)

var update = flag.Bool("update", false, "rewrite testdata/wire.golden from what the encoders produce now")

// Golden pins the encoding of every prototype: testdata/wire.golden
// (relative to the calling package) holds one line per prototype —
// position, type, hex of its encoding — and any difference fails. The
// formats travel between processes of different builds and three of
// them sit on disk (raft.LogEntry, yokan.logRecord, core.kvCommand),
// so a changed line is a wire or disk break: run with -update only
// when that break is the point of the change.
func Golden(t *testing.T, protos ...Message) {
	t.Helper()
	const path = "testdata/wire.golden"
	var b strings.Builder
	for i, p := range protos {
		// Encoded twice at once: a Proc that stores into its message
		// while encoding (messages are shared between senders) is a
		// data race the race detector reports here.
		done := make(chan []byte)
		go func() { done <- codec.Marshal(p) }()
		fmt.Fprintf(&b, "%d %T %x\n", i, p, codec.Marshal(p))
		<-done
	}
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	// Both end in an empty line, so a list longer or shorter than the
	// file differs from it at the shorter one's last line.
	want := strings.Split(string(raw), "\n")
	for i, now := range strings.Split(b.String(), "\n") {
		if i < len(want) && now != want[i] {
			t.Errorf("encoding changed:\n golden %s\n    now %s", want[i], now)
		}
	}
}
