package yokan

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
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

// contents returns every pair db holds.
func contents(t *testing.T, db Database) map[string]string {
	t.Helper()
	kvs, err := db.ListKeyValues(nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := map[string]string{}
	for _, kv := range kvs {
		m[string(kv.Key)] = string(kv.Value)
	}
	return m
}

// TestLogCrashPoints: the parent-written log, cut at every byte as a
// crash could leave it, reopens holding exactly the writes whose records
// end at or before the cut; a put made then is there, with them, at the
// next reopen.
func TestLogCrashPoints(t *testing.T) {
	raw, err := os.ReadFile(parentLog)
	if err != nil {
		t.Fatal(err)
	}
	// The records writeFormatFixture leaves, in order.
	records := []struct {
		key, value string
		erase      bool
	}{{key: "alpha", value: "1"}, {key: "beta", value: strings.Repeat("\x5a", 200)}, {key: "gamma"}, {key: "alpha", value: "2"}, {key: "beta", erase: true}}
	var ends []int
	for off := 0; off+4 <= len(raw); ends = append(ends, off) {
		off += 4 + int(binary.LittleEndian.Uint32(raw[off:]))
	}
	if len(ends) != len(records) || ends[len(ends)-1] != len(raw) {
		t.Fatalf("fixture records end at %v of %d bytes", ends, len(raw))
	}
	base := t.TempDir()
	for n := 0; n <= len(raw); n++ {
		path := filepath.Join(base, fmt.Sprint(n))
		if err := os.WriteFile(path, raw[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		want := map[string]string{}
		for i, r := range records {
			if ends[i] > n {
				break
			}
			if want[r.key] = r.value; r.erase {
				delete(want, r.key)
			}
		}
		db, err := openLogDB(path, true)
		if err != nil {
			t.Fatalf("cut at %d: %v", n, err)
		}
		if got := contents(t, db); !reflect.DeepEqual(got, want) {
			t.Fatalf("cut at %d: reopened to %q, want %q", n, got, want)
		}
		if err := db.Put([]byte("after"), []byte("the crash")); err != nil {
			t.Fatal(err)
		}
		db.Close()
		want["after"] = "the crash"
		if db, err = openLogDB(path, true); err != nil {
			t.Fatal(err)
		}
		if got := contents(t, db); !reflect.DeepEqual(got, want) {
			t.Fatalf("cut at %d: after one more put reopened to %q, want %q", n, got, want)
		}
		db.Close()
	}
}
