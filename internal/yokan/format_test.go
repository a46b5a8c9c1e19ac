package yokan

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// parentLog is the file a "log" database built from commit 4843d7a —
// before the message descriptions became codec.Proc methods — left
// behind after writeFormatFixture. It stands for every log that is on
// somebody's disk already.
const parentLog = "testdata/log-4843d7a"

// writeFormatFixture drives every record the log writes: single and
// batched puts, an overwrite, an empty value, an erase.
func writeFormatFixture(t *testing.T, path string) {
	t.Helper()
	db, err := openLogDB(path, true)
	if err != nil {
		t.Fatal(err)
	}
	steps := []error{
		db.Put([]byte("alpha"), []byte("1")),
		db.PutMulti([]KeyValue{{Key: []byte("beta"), Value: bytes.Repeat([]byte{0x5A}, 200)}, {Key: []byte("gamma"), Value: nil}}),
		db.Put([]byte("alpha"), []byte("2")),
		db.Erase([]byte("beta")),
		db.Close(),
	}
	for i, err := range steps {
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
}

// TestLogFormatUnchanged: a log written by the parent build opens with
// the same contents, and the same calls today write the same bytes.
func TestLogFormatUnchanged(t *testing.T) {
	parent, err := os.ReadFile(parentLog)
	if err != nil {
		t.Fatal(err)
	}
	old := filepath.Join(t.TempDir(), "log")
	if err := os.WriteFile(old, parent, 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := Open(Config{Type: "log", Path: old, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if n, _ := db.Count(); n != 2 {
		t.Fatalf("%d keys, want 2", n)
	}
	if v, err := db.Get([]byte("alpha")); err != nil || string(v) != "2" {
		t.Fatalf("alpha = %q, %v", v, err)
	}
	if v, err := db.Get([]byte("gamma")); err != nil || len(v) != 0 {
		t.Fatalf("gamma = %q, %v", v, err)
	}
	if ok, _ := db.Exists([]byte("beta")); ok {
		t.Fatal("erased key is back")
	}

	fresh := filepath.Join(t.TempDir(), "log")
	writeFormatFixture(t, fresh)
	if now, _ := os.ReadFile(fresh); !bytes.Equal(parent, now) {
		t.Errorf("log differs from what the parent build wrote:\nparent %x\n   now %x", parent, now)
	}
}
