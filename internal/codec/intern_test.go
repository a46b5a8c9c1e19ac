package codec

import (
	"fmt"
	"sync"
	"testing"

	"mochi/internal/testutil"
)

func TestInternReturnsEqualString(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		[]byte("a"),
		[]byte("tcp://127.0.0.1:4242"),
		[]byte("\x00\xff binary \x7f"),
		make([]byte, internMaxLen),   // at the cache bound
		make([]byte, internMaxLen+1), // beyond it: plain copy
	}
	for _, b := range cases {
		if got := Intern(b); got != string(b) {
			t.Fatalf("Intern(%q) = %q", b, got)
		}
	}
}

// TestInternHitSharesStorage pins the point of the table: the second
// decode of the same bytes returns the identical string header, not a
// fresh copy.
func TestInternHitSharesStorage(t *testing.T) {
	first := Intern([]byte("intern-hit-shares-storage"))
	second := Intern([]byte("intern-hit-shares-storage"))
	// Comparing data pointers via interface identity would need unsafe;
	// AllocsPerRun proves the hit path allocates nothing instead.
	if first != second {
		t.Fatalf("interned values differ: %q vs %q", first, second)
	}
	if testutil.RaceEnabled {
		t.Skip("alloc accounting is meaningless under the race detector")
	}
	key := []byte("intern-steady-state-key")
	Intern(key) // warm the slot
	if avg := testing.AllocsPerRun(100, func() { Intern(key) }); avg > 0 {
		t.Fatalf("interned hit allocates %.1f times per op, want 0", avg)
	}
}

// TestInternIsLossyNotGrowing floods the table with unique strings and
// checks correctness is preserved (values still equal their input);
// the table overwrites rather than grows.
func TestInternIsLossyNotGrowing(t *testing.T) {
	for i := 0; i < internSlots*4; i++ {
		b := []byte(fmt.Sprintf("unique-%d", i))
		if got := Intern(b); got != string(b) {
			t.Fatalf("flooded Intern(%q) = %q", b, got)
		}
	}
}

// TestInternConcurrent hammers one slot set from many goroutines under
// the race detector: the lossy table must stay data-race-free and
// always return correct values.
func TestInternConcurrent(t *testing.T) {
	keys := make([][]byte, 32)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("concurrent-intern-%d", i))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := keys[(g+i)%len(keys)]
				if got := Intern(k); got != string(k) {
					panic(fmt.Sprintf("Intern(%q) = %q", k, got))
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestStringInternDecode checks the Decoder entry point, including the
// sticky-error contract.
func TestStringInternDecode(t *testing.T) {
	e := NewEncoder(nil)
	e.String("tcp://10.0.0.1:5000")
	e.String("")
	buf := e.Bytes()
	d := NewDecoder(buf)
	if s := d.StringIntern(); s != "tcp://10.0.0.1:5000" {
		t.Fatalf("got %q", s)
	}
	if s := d.StringIntern(); s != "" {
		t.Fatalf("empty got %q", s)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	bad := NewDecoder([]byte{0x05, 'x'}) // declared 5, only 1 byte
	if s := bad.StringIntern(); s != "" {
		t.Fatalf("short buffer StringIntern = %q, want empty", s)
	}
	if bad.Err() == nil {
		t.Fatal("short buffer did not fail")
	}
}

// TestInternParity runs StringIntern against the plain decode on a
// fixed corpus: the decoded values must match byte for byte. FuzzDecoder
// extends this to arbitrary inputs.
func TestInternParity(t *testing.T) {
	corpus := []string{"", "a", "tcp://127.0.0.1:1", "\x00\xff\xfe", "日本語", string(make([]byte, 300))}
	for _, s := range corpus {
		e := NewEncoder(nil)
		e.String(s)
		buf := e.Bytes()
		if want := NewDecoder(buf).String(); want != s {
			t.Fatalf("String %q, input %q", want, s)
		}
		if v := NewDecoder(buf).StringIntern(); v != s {
			t.Fatalf("StringIntern %q != %q", v, s)
		}
	}
}
