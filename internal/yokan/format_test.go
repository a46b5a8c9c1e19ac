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
// behind after writeFormatFixture. It stands for every log written
// before frames carried a checksum that is on somebody's disk already.
const parentLog = "testdata/log-4843d7a"

// formatLog is what writeFormatFixture leaves now that frames carry a
// checksum: the file opens with durable's header.
const formatLog = "testdata/log-crc"

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

// formatContents is what writeFormatFixture leaves in the database.
var formatContents = map[string]string{"alpha": "2", "gamma": ""}

// copyLog copies the log file from to a fresh path.
func copyLog(t *testing.T, from string) string {
	t.Helper()
	raw, err := os.ReadFile(from)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "log")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLogFormatUnchanged: a log written in the checksummed format opens
// with the same contents, and the same calls today write the same bytes.
func TestLogFormatUnchanged(t *testing.T) {
	db, err := Open(Config{Type: "log", Path: copyLog(t, formatLog), NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if got := contents(t, db); !reflect.DeepEqual(got, formatContents) {
		t.Fatalf("opened to %q, want %q", got, formatContents)
	}

	fresh := filepath.Join(t.TempDir(), "log")
	writeFormatFixture(t, fresh)
	want, _ := os.ReadFile(formatLog)
	if now, _ := os.ReadFile(fresh); !bytes.Equal(want, now) {
		t.Errorf("log differs from the fixture:\nfixture %x\n    now %x", want, now)
	}
}

// TestLogLegacyIsRewrittenOnce: the parent-written log opens with the
// same contents and is rewritten in the checksummed format — byte for
// byte what the same calls write today — at the cost of one replace (two
// fsyncs); the second open rewrites nothing.
func TestLogLegacyIsRewrittenOnce(t *testing.T) {
	path := copyLog(t, parentLog)
	for i, syncs := range []uint64{2, 0} {
		db, err := openLogDB(path, false)
		if err != nil {
			t.Fatal(err)
		}
		if got := contents(t, db); !reflect.DeepEqual(got, formatContents) {
			t.Fatalf("open %d: %q, want %q", i+1, got, formatContents)
		}
		if db.disk.Syncs() != syncs {
			t.Fatalf("open %d: %d fsyncs, want %d", i+1, db.disk.Syncs(), syncs)
		}
		db.Close()
		want, _ := os.ReadFile(formatLog)
		if got, _ := os.ReadFile(path); !bytes.Equal(got, want) {
			t.Fatalf("open %d left\n%x\nwant\n%x", i+1, got, want)
		}
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

// TestLogCrashPoints: the checksummed log, cut at every byte as a crash
// could leave it and followed by what the disk held past the cut —
// reserved space (zeros), or stale bytes, here each record's frame as it
// was before with its last byte different — reopens holding exactly the
// writes whose records are whole; a put made then is there, with them,
// at the next reopen.
func TestLogCrashPoints(t *testing.T) {
	raw, err := os.ReadFile(formatLog)
	if err != nil {
		t.Fatal(err)
	}
	// The records writeFormatFixture leaves, in order.
	records := []struct {
		key, value string
		erase      bool
	}{{key: "alpha", value: "1"}, {key: "beta", value: strings.Repeat("\x5a", 200)}, {key: "gamma"}, {key: "alpha", value: "2"}, {key: "beta", erase: true}}
	var ends []int
	stale := bytes.Clone(raw)
	for off := 8; off+8 <= len(raw); ends = append(ends, off) {
		off += 8 + int(binary.LittleEndian.Uint32(raw[off:]))
		stale[off-1] ^= 0xff
	}
	if len(ends) != len(records) || ends[len(ends)-1] != len(raw) {
		t.Fatalf("fixture records end at %v of %d bytes", ends, len(raw))
	}
	base := t.TempDir()
	for n := 0; n <= len(raw); n++ {
		for tail, after := range map[string][]byte{"zeros": make([]byte, 512), "stale": stale[n:]} {
			path := filepath.Join(base, fmt.Sprint(n, tail))
			log := append(raw[:n:n], after...)
			if err := os.WriteFile(path, log, 0o644); err != nil {
				t.Fatal(err)
			}
			want := map[string]string{}
			for i, r := range records {
				if len(log) < ends[i] || !bytes.Equal(log[:ends[i]], raw[:ends[i]]) {
					break
				}
				if want[r.key] = r.value; r.erase {
					delete(want, r.key)
				}
			}
			db, err := openLogDB(path, true)
			if err != nil {
				t.Fatalf("cut at %d, %s after: %v", n, tail, err)
			}
			if got := contents(t, db); !reflect.DeepEqual(got, want) {
				t.Fatalf("cut at %d, %s after: reopened to %q, want %q", n, tail, got, want)
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
				t.Fatalf("cut at %d, %s after: after one more put reopened to %q, want %q", n, tail, got, want)
			}
			db.Close()
		}
	}
}
