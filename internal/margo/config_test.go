package margo

import (
	"strings"
	"testing"
)

func TestParseConfigTransport(t *testing.T) {
	cfg, err := ParseConfig([]byte(`{"transport": {"pool_size": 8}}`))
	if err != nil {
		t.Fatal(err)
	}
	tr := cfg.Transport
	if tr == nil {
		t.Fatal("transport section dropped")
	}
	if tr.PoolSize != 8 {
		t.Fatalf("transport = %+v", *tr)
	}
	// Absent section stays nil so callers can distinguish "defaults".
	cfg, err = ParseConfig([]byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Transport != nil {
		t.Fatalf("expected nil transport, got %+v", *cfg.Transport)
	}
}

func TestParseConfigTransportRejectsNegative(t *testing.T) {
	if _, err := ParseConfig([]byte(`{"transport": {"pool_size": -1}}`)); err == nil || !strings.Contains(err.Error(), "pool_size") {
		t.Fatalf("err = %v", err)
	}
}

// TestParseConfigTransportRejectsUnknownKey pins the strict decode: a
// knob that no longer exists, or a misspelt one, fails and is named.
func TestParseConfigTransportRejectsUnknownKey(t *testing.T) {
	for _, key := range []string{"accept_loops", "pool_sise"} {
		raw := []byte(`{"transport": {"pool_size": 2, "` + key + `": 1}}`)
		if _, err := ParseConfig(raw); err == nil || !strings.Contains(err.Error(), key) {
			t.Fatalf("%s: err = %v", key, err)
		}
	}
}
